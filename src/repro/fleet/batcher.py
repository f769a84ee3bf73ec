"""Continuous batcher: many requests' candidates in one kernel call.

The throughput devices the paper evaluates only pay off when their
batches are full. A lone d<=1 request offers 257 candidates — a few
percent of one device batch — so serving requests one at a time leaves
the device idle. The dispatcher fuses rank ranges from *different*
requests into one full-width batch: each request contributes a rank
range of one of its shells, the whole batch's candidates are hashed on
the device's own thread (:meth:`FleetDevice.run_batch
<repro.fleet.device.FleetDevice.run_batch>`), and each slice is compared
against its own client's digest.

Two pieces live here:

* :class:`ShellCursor` — walks one request's shells 1..d in ascending
  distance and rank, serving ``(distance, lo, hi)`` rank ranges cut at
  multiples of ``batch_size`` from rank 0 of each shell — the batches
  the ``batch:`` engine walks
  (:func:`~repro.runtime.maskplan.combination_batches`); shell 0, the
  enrolled seed itself, is hashed at admission and never reaches it;
* :func:`first_matches` — the fused XOR + hash + compare every device
  scans with (first matching rank wins within a slice, preserving the
  single-engine candidate order).

A slice is only ever ranks: its candidates are made, by
:func:`~repro.runtime.maskplan.candidates`, where they are hashed.
"""

from __future__ import annotations

import bisect
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro._bitutils import SEED_BITS
from repro.combinatorics.binomial import binomial
from repro.hashes import compiled
from repro.hashes.registry import HashAlgorithm
from repro.runtime.maskplan import candidates

__all__ = [
    "ShellCursor",
    "BatchSlice",
    "SliceOutcome",
    "first_matches",
]

#: ``(distance, lo, hi)``: ranks ``[lo, hi)`` of one shell.
Ranks = tuple[int, int, int]

#: What a scan is asked for: ``(distance, rank lo, rank hi, base words,
#: target words)``.
Job = tuple[int, int, int, np.ndarray, np.ndarray]


class ShellCursor:
    """Serves one request's rank ranges, shell by shell, in order.

    It starts at shell 1: shell 0, the one rank of the enrolled seed
    itself, is hashed by :meth:`FleetScheduler.submit
    <repro.fleet.dispatcher.FleetScheduler.submit>` before a request
    enters the stream. Each shell is cut at multiples of ``batch_size``
    from its rank 0, so a request's kernel calls line up with the
    single-engine search at every depth.
    """

    def __init__(self, max_distance: int, batch_size: int):
        self._max_distance = max_distance
        self._batch_size = batch_size
        #: The shell being served and its first rank not yet served.
        self._distance = 1
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

    @property
    def next_rows(self) -> int:
        """Rows of the range ``take(batch_size)`` would serve next: the
        rest of the shell's current batch, or of a replayed range (0 when
        exhausted)."""
        if self._replay:
            _distance, lo, hi = self._replay[0]
            return min(hi - lo, self._batch_size)
        if self._distance > self._max_distance:
            return 0
        return self._batch_end() - self._next

    def _batch_end(self) -> int:
        """End of the ``batch_size`` batch holding the next rank."""
        lo = self._next
        boundary = lo - lo % self._batch_size + self._batch_size
        return min(binomial(SEED_BITS, self._distance), boundary)

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
        """Up to ``max_rows`` ranks of the current shell's current batch.

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
        hi = min(self._batch_end(), lo + max_rows)
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
