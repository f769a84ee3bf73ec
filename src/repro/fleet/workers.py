"""The worker set: one pinned process per core behind the fleet's devices.

A native 32-byte digest holds the interpreter lock (EXPERIMENTS.md,
E-NATIVE), so on the ``hashlib`` fallback the host's other cores can
only be reached by processes (the compiled kernel releases the lock;
the fallback does not). This module is the one place ``src/repro``
keeps long-lived ones: a :class:`WorkerSet` forks ``workers`` processes
when the engine is built, pins worker *i* to the *i*-th CPU of the
process's cpuset (unpinned, the kernel's wake-affine placement tends to
stack the wakees next to the waker, and two workers read 1.2-1.6x where
pinned ones read 1.8-1.9x — E-CORES), and has each block on its own
pipe. What crosses a pipe is
``(distance, rank lo, rank hi, base words, target words)`` one way and
``first matching row | none`` the other: a worker makes its own
candidates (:func:`repro.runtime.maskplan.candidates`) from the mask
table the set builds before it forks, and scans them with the compiled
kernel the set loads before it forks (:mod:`repro.hashes.compiled`).

One fused batch is on the workers at a time: the cores are the resource,
so a second device's batch queues behind the first. A worker that dies
mid-batch surfaces as :class:`WorkerLost` — the device turns it into the
``DeviceFailure`` the dispatcher already re-dispatches — and the set
refuses batches until :meth:`WorkerSet.revive` (the device's heartbeat
probe) has re-forked it. Workers exit on pipe EOF, so neither a closed
engine nor a ``kill -9``'d parent leaves one behind.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import signal
import threading
from collections.abc import Sequence
from multiprocessing.connection import Connection
from typing import Any

import numpy as np

from repro.fleet.batcher import first_matches
from repro.hashes import compiled
from repro.hashes.registry import HashAlgorithm
from repro.runtime.maskplan import mask_tables
from repro.runtime.partition import partition_ranks

__all__ = ["SPLIT_MIN_ROWS", "WorkerLost", "WorkerSet", "default_worker_count"]

#: Rows a fused batch needs before it is split over the workers.
#: Scatter, two wake-ups and gather cost ≈ 0.2 ms. On the compiled
#: kernel, ``fleet:host`` SHA3-256 split over two workers reads 0.86-0.92x
#: one thread at 512-row batches, 1.06-1.12x at 1 024, 1.33-1.37x at 2 048
#: (EXPERIMENTS.md, E-CORES); on the ``hashlib`` fallback, splitting
#: already wins at 512 (1.20x, crossover ≈ 256). A depth-0 probe (one
#: row) or a d=1 shell (256) never pays it.
SPLIT_MIN_ROWS = 1024

#: What the set is asked to scan: ``(distance, rank lo, rank hi, base
#: words, target words)``.
Job = tuple[int, int, int, np.ndarray, np.ndarray]


def default_worker_count() -> int:
    """Worker count respecting the process's cpuset, not the machine.

    ``mp.cpu_count()`` reports every core in the box; in containers and
    CI with restricted cpusets that over-subscribes by the cgroup ratio.
    """
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


class WorkerLost(RuntimeError):
    """A worker process died (or the set is short of one); nothing the
    batch computed may be used."""


def _serve(
    conn: Connection,
    algo: HashAlgorithm,
    fixed_padding: bool,
    cpu: int | None,
    inherited: Sequence[Connection],
) -> None:
    """A worker's life: make, hash, answer; leave when the pipe closes."""
    # The parent ends forked into this process would otherwise keep the
    # siblings' pipes (and this one) open after the parent is gone.
    for end in inherited:
        end.close()
    # Whatever handlers the parent installed are not this process's.
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    if cpu is not None:
        try:
            os.sched_setaffinity(0, {cpu})
        except OSError:
            pass  # a cpuset that forbids it: slower unpinned, still right
    while True:
        try:
            pieces = conn.recv()
        except (EOFError, OSError):
            return
        conn.send(first_matches(algo, fixed_padding, pieces))


def _cut(rows: Sequence[int], parts: int) -> list[list[tuple[int, int, int]]]:
    """The jobs' rows, laid end to end, cut into ``parts`` contiguous
    ranges: per part, its ``(job, lo, hi)`` pieces in batch order."""
    shares: list[list[tuple[int, int, int]]] = [[] for _ in range(parts)]
    bounds = partition_ranks(sum(rows), parts)
    start = 0
    for job, count in enumerate(rows):
        for share, (lo, hi) in zip(shares, bounds, strict=True):
            a, b = max(lo, start), min(hi, start + count)
            if a < b:
                share.append((job, a - start, b - start))
        start += count
    return shares


class _Worker:
    __slots__ = ("process", "conn")

    def __init__(self, process: Any, conn: Connection):
        self.process = process
        self.conn = conn


class WorkerSet:
    """``workers`` pinned processes that scan rank ranges.

    ``workers=None`` sizes the set to the cpuset; ``workers=1`` (or a
    one-CPU cpuset) forks nothing — the device thread is the one core,
    and :attr:`splits` is false.
    """

    def __init__(
        self,
        algo: HashAlgorithm,
        fixed_padding: bool = True,
        workers: int | None = None,
    ):
        self.workers = workers if workers is not None else default_worker_count()
        if self.workers < 1:
            raise ValueError("workers must be positive")
        self.algo = algo
        self.fixed_padding = fixed_padding
        #: Processes forked over the set's lifetime (``workers`` unless
        #: one had to be replaced) and fused batches sent to them.
        self.spawned = 0
        self.batches = 0
        self._lock = threading.Lock()
        self._closed = False
        self._slots: list[_Worker | None] = [None] * self.workers
        if self.splits:
            # Before the fork, so that the workers share this process's
            # pages of the table and inherit the loaded kernel instead of
            # each building its own.
            mask_tables()
            compiled.load()
            self.revive()

    @property
    def splits(self) -> bool:
        """Whether there is anyone to split a batch over."""
        return self.workers > 1

    def worth_splitting(self, rows: int) -> bool:
        """Whether ``rows`` rows hash sooner over the workers than on the
        calling thread."""
        return self.splits and rows >= SPLIT_MIN_ROWS

    # -- processes ------------------------------------------------------

    def _fork(self, index: int) -> _Worker:
        try:
            cpus = sorted(os.sched_getaffinity(0))
            cpu: int | None = cpus[index % len(cpus)]
        except (AttributeError, OSError):  # pragma: no cover - non-Linux
            cpu = None
        ctx = mp.get_context("fork")
        parent_end, child_end = ctx.Pipe()
        inherited = [w.conn for w in self._slots if w is not None] + [parent_end]
        process = ctx.Process(
            target=_serve,
            args=(child_end, self.algo, self.fixed_padding, cpu, inherited),
            name=f"rbc-worker-{index}",
            daemon=True,
        )
        try:
            process.start()
        except BaseException:
            parent_end.close()
            raise
        finally:
            child_end.close()
        self.spawned += 1
        return _Worker(process, parent_end)

    def _drop_locked(self, index: int) -> None:
        worker = self._slots[index]
        if worker is not None:
            self._slots[index] = None
            _reap(worker)

    def revive(self) -> None:
        """Fork every missing worker; a set at strength forks nothing."""
        if not self.splits:
            return
        with self._lock:
            if self._closed:
                return
            for index, worker in enumerate(self._slots):
                if worker is not None and not worker.process.is_alive():
                    self._drop_locked(index)
                if self._slots[index] is None:
                    self._slots[index] = self._fork(index)

    def pids(self) -> list[int]:
        """Process ids of the live workers."""
        with self._lock:
            return [
                w.process.pid
                for w in self._slots
                if w is not None and w.process.is_alive()
            ]

    # -- one fused batch ------------------------------------------------

    def scan(self, jobs: Sequence[Job]) -> list[int | None]:
        """First matching row (from its ``lo``) of each job, the batch cut
        over the workers.

        The jobs' ranks, laid end to end, are cut into one contiguous
        range per worker; a job's answer is its lowest matching row in
        the lowest range — the row one in-order scan would have found.
        Raises :class:`WorkerLost` if a worker is missing or dies.
        """
        shares = _cut([hi - lo for _d, lo, hi, _b, _t in jobs], self.workers)
        scattered = []
        for share in shares:
            pieces = []
            for job, lo, hi in share:
                distance, first, _hi, base_words, target_words = jobs[job]
                pieces.append(
                    (distance, first + lo, first + hi, base_words, target_words)
                )
            scattered.append(pieces)
        with self._lock:
            if self._closed or None in self._slots:
                raise WorkerLost("the worker set is short of a worker")
            self.batches += 1
            workers = [w for w in self._slots if w is not None]
            lost = []
            for index, (worker, pieces) in enumerate(
                zip(workers, scattered, strict=True)
            ):
                try:
                    worker.conn.send(pieces)
                except (OSError, ValueError):
                    lost.append(index)
            replies: list[list[int | None]] = [[] for _ in workers]
            for index, worker in enumerate(workers):
                if index not in lost:
                    try:
                        replies[index] = worker.conn.recv()
                    except (EOFError, OSError):
                        lost.append(index)
            for index in lost:
                self._drop_locked(index)
            if lost:
                raise WorkerLost(f"worker(s) {sorted(lost)} died mid-batch")
        found: list[int | None] = [None] * len(jobs)
        for share, reply in zip(shares, replies, strict=True):
            for (job, lo, _hi), row in zip(share, reply, strict=True):
                if row is not None and found[job] is None:
                    found[job] = lo + row
        return found

    # -- lifecycle ------------------------------------------------------

    def close(self) -> None:
        """Close the pipes and reap the workers; safe to call twice."""
        with self._lock:
            self._closed = True
            workers = [w for w in self._slots if w is not None]
            self._slots = [None] * self.workers
        for worker in workers:
            worker.conn.close()
        for worker in workers:
            worker.process.join(timeout=2.0)
            _reap(worker)


def _reap(worker: _Worker) -> None:
    """Make sure one worker is gone and collected."""
    worker.conn.close()
    if worker.process.is_alive():
        worker.process.kill()
    worker.process.join()
