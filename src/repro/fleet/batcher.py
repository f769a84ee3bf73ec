"""Continuous batcher: many requests' candidates in one kernel call.

The throughput devices the paper evaluates only pay off when their
batches are full. A lone d<=1 request offers 257 candidates — a few
percent of one device batch — so serving requests one at a time leaves
the device idle. This module fuses chunks from *different* requests into
one full-width batch: each request contributes a rank range of one of
its shells, the whole batch's candidates are hashed with a single kernel
call, and each slice is compared against its own client's digest.

Two pieces:

* :class:`UnitCursor` — walks one request's remaining
  :class:`~repro.fleet.units.WorkUnit` chunks and serves ``(distance,
  lo, hi)`` rank ranges of any requested width, never mixing Hamming
  distances within a range and never crossing a ``batch_size`` boundary
  of its chunk;
* :class:`ContinuousBatcher` — takes the slices the dispatcher
  assembled, runs the fused XOR + hash + compare (:func:`first_matches`)
  on the calling device thread, and reports per-slice outcomes (first
  matching rank wins within a slice, preserving the single-engine
  candidate order).

A slice is only ever ranks: its candidates are made, by
:func:`~repro.runtime.maskplan.candidates`, where they are hashed.
"""

from __future__ import annotations

import bisect
import time
from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro._bitutils import words_to_seed
from repro.fleet.units import WorkUnit
from repro.hashes import compiled
from repro.hashes.registry import HashAlgorithm
from repro.runtime.maskplan import candidates

__all__ = [
    "UnitCursor",
    "BatchSlice",
    "SliceOutcome",
    "first_matches",
    "ContinuousBatcher",
]

#: ``(distance, lo, hi)``: ranks ``[lo, hi)`` of one shell.
Ranks = tuple[int, int, int]

#: What a scan is asked for: ``(distance, rank lo, rank hi, base words,
#: target words)``.
Job = tuple[int, int, int, np.ndarray, np.ndarray]


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
        #: Ranges returned to the cursor after a device failed mid-batch,
        #: in rank order; served before anything else so candidate order
        #: is preserved.
        self._replay: list[Ranks] = []

    @property
    def exhausted(self) -> bool:
        """True when every unit has been fully served."""
        return not self._replay and self._unit is None and not self._units

    @property
    def pending_chunks(self) -> int:
        """Chunks not yet fully served (replayed ranges + current + units)."""
        current = 1 if self._unit is not None else 0
        return len(self._replay) + current + len(self._units)

    @property
    def floor(self) -> tuple[int, int] | None:
        """``(distance, rank)`` of the lowest rank not yet served, or
        ``None`` when exhausted — what a served range must wait for
        before it may commit."""
        if self._replay:
            return self._replay[0][:2]
        if self._unit is not None:
            return self._unit.distance, self._next
        if self._units:
            return self._units[0].distance, self._units[0].lo
        return None

    @property
    def next_rows(self) -> int:
        """Rows of the range ``take(batch_size)`` would serve next: the
        rest of the unit's current batch, or of a replayed range (0 when
        exhausted)."""
        if self._replay:
            _distance, lo, hi = self._replay[0]
            return min(hi - lo, self._batch_size)
        if self._unit is not None:
            unit, lo = self._unit, self._next
        elif self._units:
            unit = self._units[0]
            lo = unit.lo
        else:
            return 0
        boundary = lo - (lo - unit.lo) % self._batch_size + self._batch_size
        return min(unit.hi, boundary) - lo

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
            return self._replay.pop(0)
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
    batch. Every device thread scans with this, so a rank range answers
    the same wherever it is hashed.
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


class ContinuousBatcher:
    """Fused XOR + hash + compare over slices from many requests, on the
    calling device thread."""

    def __init__(self, algo: HashAlgorithm, fixed_padding: bool = True):
        self.algo = algo
        self.fixed_padding = fixed_padding
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
