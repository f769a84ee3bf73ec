"""Continuous batcher: many requests' rank ranges in one device batch.

The throughput devices the paper evaluates only pay off when their
batches are full. Past the door a lone d<=2 request offers one shell of
32 640 candidates — a small part of a full accelerator batch — so
serving requests one at a time leaves the device idle. The dispatcher
fuses rank ranges from *different* requests into one full-width batch:
each request contributes a rank range of one of its shells, the batch is
scanned on the thread running the device (:meth:`FleetDevice.run_batch
<repro.fleet.device.FleetDevice.run_batch>`), and each slice is compared
against its own client's digest.

Two pieces live here:

* :class:`ShellCursor` — walks one request's shells from shell 2 in
  ascending distance and rank, serving ``(distance, lo, hi)`` rank ranges
  of whatever size the device's batch has room for; shells 0 and 1, the
  enrolled seed and its 256 neighbours, are hashed at admission and
  never reach it;
* :func:`first_matches` — the walk + hash + compare every device scans
  with (first matching rank wins within a slice, preserving the
  single-engine candidate order), one C call per slice
  (:meth:`repro.hashes.compiled.Kernel.scan`) on all the host's cores;
* :func:`batch_end` — the one count rule: a committed range counts all
  its rows, or, holding a match, its rows up to the end of the
  ``batch_size`` batch (cut from rank 0 of the shell) that holds it, so
  ``seeds_hashed`` equals ``batch:``'s however the ranges were cut.

A slice is only ever ranks: its candidates are walked, in C, where they
are hashed. Each request owns one stop byte, set when it retires; the
scan reads it once per eight rows, so the request's ranges still running
on other devices stop within eight rows (the paper's exit flag, §4.4).
"""

from __future__ import annotations

import bisect
import ctypes
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro._bitutils import SEED_BITS, flip_bits, seed_to_words
from repro.combinatorics.algorithm515 import unrank_lexicographic
from repro.combinatorics.binomial import binomial
from repro.hashes import compiled
from repro.hashes.registry import HashAlgorithm
from repro.runtime.maskplan import candidates

__all__ = [
    "ShellCursor",
    "BatchSlice",
    "SliceOutcome",
    "batch_end",
    "first_matches",
    "seed_at",
]

#: ``(distance, lo, hi)``: ranks ``[lo, hi)`` of one shell.
Ranks = tuple[int, int, int]


def seed_at(seed: bytes, distance: int, rank: int) -> bytes:
    """The candidate at ``rank`` (lexicographic, Algorithm 515) of the
    ``distance`` shell around ``seed``: what a scan's matching row is.
    The door's hits cost least in Python: shell 0 is the seed and a
    shell-1 rank its bit position (≈ 1 µs). Deeper ranks are unranked
    in C by the compiled kernel (≈ 4 µs a call, against 48–75 µs for
    the Python descent, which serves without it)."""
    if distance <= 1:
        return flip_bits(seed, (rank,)[:distance])
    kernel = compiled.load()
    if kernel is not None and distance <= kernel.max_distance:
        return kernel.unrank(seed, distance, rank)
    return flip_bits(seed, unrank_lexicographic(SEED_BITS, distance, rank))


class ShellCursor:
    """Serves one request's rank ranges, shell by shell, in order.

    It starts at shell 2: shells 0 and 1, the enrolled seed itself and
    its 256 neighbours, are hashed by :meth:`FleetScheduler.submit
    <repro.fleet.dispatcher.FleetScheduler.submit>` before a request
    enters the stream. A range is as many ranks as the caller has room
    for, up to the end of the shell: where the ranges are cut changes no
    result, since a match counts up to the end of its ``batch_size``
    batch (:func:`batch_end`).
    """

    def __init__(self, max_distance: int):
        self._max_distance = max_distance
        #: The shell being served and its first rank not yet served.
        self._distance = 2
        self._next = 0
        #: Ranges returned to the cursor after a device failed mid-batch,
        #: in rank order; served before anything else so candidate order
        #: is preserved.
        self._replay: list[Ranks] = []

    @property
    def exhausted(self) -> bool:
        """True when every shell has been fully served."""
        return not self._replay and self._distance > self._max_distance

    @property
    def floor(self) -> tuple[int, int] | None:
        """``(distance, rank)`` of the lowest rank not yet served, or
        ``None`` when exhausted — what a served range must wait for
        before it may commit."""
        if self._replay:
            return self._replay[0][:2]
        if self._distance > self._max_distance:
            return None
        return self._distance, self._next

    def push_back(self, distance: int, lo: int, hi: int) -> None:
        """Return an unconsumed range to the cursor, ahead of everything
        not yet served.

        Used when a device dies mid-batch: the dispatcher pushes the
        failed batch's slices back and a surviving device replays them,
        lowest rank first, before advancing — the byte-equivalence
        contract holds across re-dispatch, whichever device failed first.
        """
        bisect.insort(self._replay, (distance, lo, hi))

    def take(self, max_rows: int) -> Ranks | None:
        """Up to ``max_rows`` ranks of the current shell (or of the
        lowest replayed range).

        Returns ``(distance, lo, hi)`` or ``None`` when exhausted.
        """
        if max_rows < 1:
            raise ValueError("max_rows must be positive")
        if self._replay:
            distance, lo, hi = self._replay[0]
            if hi - lo > max_rows:
                self._replay[0] = (distance, lo + max_rows, hi)
                return distance, lo, lo + max_rows
            return self._replay.pop(0)
        if self._distance > self._max_distance:
            return None
        distance, lo = self._distance, self._next
        hi = min(binomial(SEED_BITS, distance), lo + max_rows)
        if hi == binomial(SEED_BITS, distance):
            self._distance, self._next = distance + 1, 0
        else:
            self._next = hi
        return distance, lo, hi


@dataclass(frozen=True)
class BatchSlice:
    """One request's contribution to a fused device batch."""

    #: Opaque handle the dispatcher uses to route the outcome back.
    key: object
    distance: int
    lo: int
    hi: int
    seed: bytes  # the enrolled seed, 32 bytes
    digest: bytes  # the client digest this slice compares against
    stop: ctypes.c_uint8  # the request's stop byte, set when it retires

    @property
    def rows(self) -> int:
        return self.hi - self.lo


@dataclass(frozen=True)
class SliceOutcome:
    """What one slice of a fused batch produced."""

    key: object
    distance: int
    #: Rows the device counts for the slice: all of its range, unless the
    #: request's stop byte cut the scan short (then the rows scanned).
    #: A match commits the rows :func:`batch_end` names instead.
    rows: int
    #: Matching seed (bytes) at the lowest rank within the slice, if any.
    seed: bytes | None
    #: Wall-clock share of the fused batch attributed to this slice.
    seconds: float
    #: The rank of ``seed`` in its shell, when there is one.
    rank: int | None = None


def batch_end(distance: int, rank: int, batch_size: int) -> int:
    """The end of the ``batch_size`` batch holding ``rank``, batches cut
    from rank 0 of the ``distance`` shell as ``batch:`` cuts them: a
    match at ``rank`` commits its shell's ranks below this."""
    return min(binomial(SEED_BITS, distance), rank - rank % batch_size + batch_size)


def first_matches(
    algo: HashAlgorithm,
    fixed_padding: bool,
    slices: Sequence[BatchSlice],
    workers: int = 1,
) -> list[tuple[int | None, int]]:
    """Walk + hash + compare: per slice, the lowest row (from ``lo``)
    whose candidate hashes to the slice's digest, or ``None``, and the
    rows the slice counts — all of its range unless its stop byte was
    set before the scan got through it.

    With the compiled kernel (:func:`repro.hashes.compiled.load`) each
    slice is one C call that walks its ranks on up to ``workers`` cores
    and stops at the slice's first match or within eight rows of its
    stop byte. Otherwise every slice not yet stopped has its candidates
    made by :func:`~repro.runtime.maskplan.candidates` and hashed in one
    ``hashlib`` batch. Every device thread scans with this, so a rank
    range answers the same wherever it is hashed.
    """
    if not slices:
        return []
    kernel = compiled.load()
    if kernel is not None and algo.name in kernel.hashes:
        scanned: list[tuple[int | None, int]] = []
        for piece in slices:
            row, rows = kernel.scan(
                algo.name,
                piece.distance,
                piece.lo,
                piece.hi,
                piece.seed,
                piece.digest,
                piece.stop,
                workers,
            )
            scanned.append((row, rows if row is None else piece.rows))
        return scanned
    found: list[tuple[int | None, int]] = [(None, 0)] * len(slices)
    live = [index for index, piece in enumerate(slices) if not piece.stop.value]
    if not live:
        return found
    words = [
        candidates(
            slices[index].distance,
            slices[index].lo,
            slices[index].hi,
            seed_to_words(slices[index].seed),
        )
        for index in live
    ]
    combined = words[0] if len(words) == 1 else np.concatenate(words)
    digests = algo.hash_seeds_batch(combined, fixed_padding=fixed_padding)
    offset = 0
    for index in live:
        piece = slices[index]
        target = algo.digest_to_words(piece.digest)
        matches = np.flatnonzero(
            (digests[offset : offset + piece.rows] == target).all(axis=1)
        )
        offset += piece.rows
        found[index] = (int(matches[0]) if matches.size else None, piece.rows)
    return found
