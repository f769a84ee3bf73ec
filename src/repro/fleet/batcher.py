"""Continuous batcher: many requests' candidates in one kernel call.

The throughput devices the paper evaluates only pay off when their
batches are full. A lone d<=1 request offers 257 candidates — a few
percent of one device batch — so serving requests one at a time leaves
the device idle. This module fuses chunks from *different* requests into
one full-width batch: each request contributes a rank range of one of
its shells, the whole batch's candidates are hashed with a single kernel
call, and each slice is compared against its own client's digest.

Three pieces:

* :class:`UnitCursor` — walks one request's remaining
  :class:`~repro.fleet.units.WorkUnit` chunks and serves ``(distance,
  lo, hi)`` rank ranges of any requested width, never mixing Hamming
  distances within a range and never crossing a ``batch_size`` boundary
  of its chunk;
* :class:`WorkerSet` — the engine's scan threads, one per core, each
  handed a contiguous rank range of a wide batch;
* :class:`ContinuousBatcher` — takes the slices the dispatcher
  assembled, runs the fused XOR + hash + compare (:func:`first_matches`,
  here or — for wide batches — on the worker set), and reports per-slice
  outcomes (first matching rank wins within a slice, preserving the
  single-engine candidate order).

A slice is only ever ranks: its candidates are made, by
:func:`~repro.runtime.maskplan.candidates`, where they are hashed.
"""

from __future__ import annotations

import os
import threading
import time
from collections import deque
from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from repro._bitutils import words_to_seed
from repro.fleet.units import WorkUnit
from repro.hashes import compiled
from repro.hashes.registry import HashAlgorithm
from repro.runtime.maskplan import candidates, mask_tables
from repro.runtime.partition import partition_ranks

__all__ = [
    "SPLIT_MIN_ROWS",
    "UnitCursor",
    "BatchSlice",
    "SliceOutcome",
    "first_matches",
    "WorkerSet",
    "ContinuousBatcher",
    "default_worker_count",
]

#: ``(distance, lo, hi)``: ranks ``[lo, hi)`` of one shell.
Ranks = tuple[int, int, int]

#: What a scan is asked for: ``(distance, rank lo, rank hi, base words,
#: target words)``.
Job = tuple[int, int, int, np.ndarray, np.ndarray]

#: Rows a fused batch needs before it is split over the worker set's
#: threads. On the compiled kernel, ``fleet:host`` SHA3-256 split over
#: two threads reads 0.62-0.88x one thread at 512-row batches, 1.09-1.14x
#: at 1 024 and 1.06-1.33x at 2 048 (EXPERIMENTS.md, E-CORES). A depth-0
#: probe (one row) or a d=1 shell (256) never pays the hand-off.
SPLIT_MIN_ROWS = 1024


class UnitCursor:
    """Serves rank ranges across one request's work units, in order.

    Within a unit, ranges are cut at multiples of ``batch_size`` from the
    unit's first rank — the batches the ``batch:`` engine walks — so a
    request's kernel calls line up with the single-engine search.
    """

    def __init__(self, units: list[WorkUnit], batch_size: int):
        self._units: deque[WorkUnit] = deque(units)
        self._batch_size = batch_size
        #: The unit being served and the first rank not yet served.
        self._unit: WorkUnit | None = None
        self._next = 0
        #: Ranges returned to the cursor after a device failed mid-batch;
        #: served before anything else so candidate order is preserved.
        self._replay: deque[Ranks] = deque()

    @property
    def exhausted(self) -> bool:
        """True when every unit has been fully served."""
        return not self._replay and self._unit is None and not self._units

    @property
    def pending_chunks(self) -> int:
        """Chunks not yet fully served (replayed ranges + current + units)."""
        current = 1 if self._unit is not None else 0
        return len(self._replay) + current + len(self._units)

    def push_back(self, distance: int, lo: int, hi: int) -> None:
        """Return an unconsumed range to the *front* of the cursor.

        Used when a device dies mid-batch: the dispatcher pushes the
        failed batch's slices back (in reverse order, so earlier slices
        end up in front) and a surviving device replays them in the
        original candidate order — the byte-equivalence contract holds
        across re-dispatch.
        """
        self._replay.appendleft((distance, lo, hi))

    def take(self, max_rows: int) -> Ranks | None:
        """Up to ``max_rows`` ranks of the current shell.

        Returns ``(distance, lo, hi)`` or ``None`` when exhausted. The
        distance-0 unit is the one rank of the enrolled seed itself.
        """
        if max_rows < 1:
            raise ValueError("max_rows must be positive")
        if self._replay:
            distance, lo, hi = self._replay[0]
            if hi - lo > max_rows:
                self._replay[0] = (distance, lo + max_rows, hi)
                return distance, lo, lo + max_rows
            return self._replay.popleft()
        if self._unit is None:
            if not self._units:
                return None
            self._unit = self._units.popleft()
            self._next = self._unit.lo
        unit, lo = self._unit, self._next
        batch = (lo - unit.lo) // self._batch_size + 1
        hi = min(unit.hi, unit.lo + batch * self._batch_size, lo + max_rows)
        if hi == unit.hi:
            self._unit = None
        self._next = hi
        return unit.distance, lo, hi


@dataclass(frozen=True)
class BatchSlice:
    """One request's contribution to a fused device batch."""

    #: Opaque handle the dispatcher uses to route the outcome back.
    key: object
    distance: int
    lo: int
    hi: int
    base_words: np.ndarray  # (4,) uint64 enrolled seed
    target_words: np.ndarray  # digest words this slice compares against

    @property
    def rows(self) -> int:
        return self.hi - self.lo


@dataclass(frozen=True)
class SliceOutcome:
    """What one slice of a fused batch produced."""

    key: object
    distance: int
    rows: int
    #: Matching seed (bytes) at the lowest rank within the slice, if any.
    seed: bytes | None
    #: Wall-clock share of the fused batch attributed to this slice.
    seconds: float


def first_matches(
    algo: HashAlgorithm,
    fixed_padding: bool,
    slices: Sequence[Job],
) -> list[int | None]:
    """Fused candidates + hash + compare: per ``(distance, lo, hi, base
    words, target words)`` slice, the lowest row (from ``lo``) whose
    candidate hashes to the target.

    With the compiled kernel (:func:`repro.hashes.compiled.load`) each
    slice's candidates are one C call that stops at the slice's first
    match; otherwise every slice's candidates go through one ``hashlib``
    batch. The device thread and the worker set's threads both scan with
    this, so a rank range answers the same wherever it is hashed.
    """
    if not slices:
        return []
    kernel = compiled.load()
    if kernel is not None and algo.name in kernel.hashes:
        return [
            kernel.first_match(
                algo.name, candidates(distance, lo, hi, base_words), target_words
            )
            for distance, lo, hi, base_words, target_words in slices
        ]
    words = [
        candidates(distance, lo, hi, base_words)
        for distance, lo, hi, base_words, _t in slices
    ]
    combined = words[0] if len(words) == 1 else np.concatenate(words)
    digests = algo.hash_seeds_batch(combined, fixed_padding=fixed_padding)
    found: list[int | None] = []
    offset = 0
    for _d, lo, hi, _b, target_words in slices:
        matches = np.flatnonzero(
            (digests[offset : offset + hi - lo] == target_words).all(axis=1)
        )
        offset += hi - lo
        found.append(int(matches[0]) if matches.size else None)
    return found


def default_worker_count() -> int:
    """Worker count respecting the process's cpuset, not the machine.

    ``os.cpu_count()`` reports every core in the box; in containers and
    CI with restricted cpusets that over-subscribes by the cgroup ratio.
    """
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


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


def _piece(job: Job, lo: int, hi: int) -> Job:
    """Rows ``[lo, hi)`` of ``job``, counted from its first rank."""
    distance, first, _hi, base_words, target_words = job
    return distance, first + lo, first + hi, base_words, target_words


class WorkerSet:
    """``workers`` threads that scan rank ranges: the host's cores.

    The compiled kernel releases the interpreter lock for its call, so
    the engine's threads hash on every core of one process, as the
    paper's OpenMP loop does (on the ``hashlib`` fallback they share
    the lock, and a split batch hashes at about one core's rate).
    ``workers=None`` sizes the set to the cpuset; ``workers=1`` (or a
    one-CPU cpuset) starts no thread — the device thread is the one
    core, and :attr:`splits` is false. The pool's queue is the one
    place a second device's batch waits for the cores.
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
        #: Fused batches split over the threads (every device's).
        self.batches = 0
        self._counting = threading.Lock()
        self._pool: ThreadPoolExecutor | None = None
        if self.splits:
            # Built here, not racing on the first batch's threads.
            mask_tables()
            compiled.load()
            self._pool = ThreadPoolExecutor(
                self.workers, thread_name_prefix="rbc-scan"
            )

    @property
    def splits(self) -> bool:
        """Whether there is anyone to split a batch over."""
        return self.workers > 1

    def worth_splitting(self, rows: int) -> bool:
        """Whether ``rows`` rows hash sooner over the threads than on the
        calling thread."""
        return self.splits and rows >= SPLIT_MIN_ROWS

    def scan(self, jobs: Sequence[Job]) -> list[int | None]:
        """First matching row (from its ``lo``) of each job, the batch cut
        over the threads.

        The jobs' ranks, laid end to end, are cut into one contiguous
        range per thread; a job's answer is its lowest matching row in
        the lowest range — the row one in-order scan would have found.
        """
        assert self._pool is not None, "a set of one never splits"
        shares = _cut([hi - lo for _d, lo, hi, _b, _t in jobs], self.workers)
        futures = [
            self._pool.submit(
                first_matches,
                self.algo,
                self.fixed_padding,
                [_piece(jobs[job], lo, hi) for job, lo, hi in share],
            )
            for share in shares
        ]
        with self._counting:
            self.batches += 1
        found: list[int | None] = [None] * len(jobs)
        for share, future in zip(shares, futures, strict=True):
            for (job, lo, _hi), row in zip(share, future.result(), strict=True):
                if row is not None and found[job] is None:
                    found[job] = lo + row
        return found

    def close(self) -> None:
        """Join the threads; safe to call twice."""
        if self._pool is not None:
            self._pool.shutdown()


class ContinuousBatcher:
    """Fused XOR + hash + compare over slices from many requests.

    With a :class:`WorkerSet`, a batch of enough rows is scanned by its
    threads, a contiguous rank range each; anything narrower — or a set
    of one — is hashed on the calling thread. Which of the two scanned a
    row changes no outcome.
    """

    def __init__(
        self,
        algo: HashAlgorithm,
        fixed_padding: bool = True,
        workers: WorkerSet | None = None,
    ):
        self.algo = algo
        self.fixed_padding = fixed_padding
        self.workers = workers
        #: Fused batches run / batches carrying more than one request.
        self.batches = 0
        self.shared_batches = 0

    def run(self, slices: list[BatchSlice]) -> list[SliceOutcome]:
        """Scan every slice's candidates as one fused batch."""
        if not slices:
            return []
        start = time.perf_counter()
        scans = [
            (piece.distance, piece.lo, piece.hi, piece.base_words, piece.target_words)
            for piece in slices
        ]
        total_rows = sum(piece.rows for piece in slices)
        if self.workers is not None and self.workers.worth_splitting(total_rows):
            hits = self.workers.scan(scans)
        else:
            hits = first_matches(self.algo, self.fixed_padding, scans)
        elapsed = time.perf_counter() - start
        self.batches += 1
        if len(slices) > 1:
            self.shared_batches += 1
        return [
            SliceOutcome(
                key=piece.key,
                distance=piece.distance,
                rows=piece.rows,
                seed=(
                    None
                    if row is None
                    else words_to_seed(
                        candidates(
                            piece.distance,
                            piece.lo + row,
                            piece.lo + row + 1,
                            piece.base_words,
                        )[0]
                    )
                ),
                seconds=elapsed * (piece.rows / total_rows),
            )
            for piece, row in zip(slices, hits)
        ]
