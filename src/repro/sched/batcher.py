"""Continuous batcher: many requests' candidates in one kernel call.

The throughput devices the paper evaluates only pay off when their
batches are full. A lone d<=1 request offers 257 candidates — a few
percent of one device batch — so serving requests one at a time leaves
the device idle. This module fuses chunks from *different* requests into
one full-width batch: each request contributes a slice of candidate
seeds (its base seed XOR its chunk's masks), the whole batch is hashed
with a single kernel call, and each slice is compared against its own
client's digest.

Two pieces:

* :class:`UnitCursor` — walks one request's remaining
  :class:`~repro.sched.units.WorkUnit` chunks and serves mask-word
  slices of any requested width, never mixing Hamming distances within
  a slice (plan-cache aware via the executor's mask pipeline; the
  cache, not the cursor, counts the look-ups);
* :class:`ContinuousBatcher` — takes the slices the dispatcher
  assembled, runs the fused XOR + hash + compare (:func:`first_matches`,
  here or — for wide batches over shared plans — on the fleet's worker
  processes), and reports per-slice outcomes (first matching rank wins
  within a slice, preserving the single-engine candidate order).
"""

from __future__ import annotations

import time
from collections import deque
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro._bitutils import words_to_seed
from repro.hashes.registry import HashAlgorithm
from repro.runtime.executor import BatchSearchExecutor
from repro.runtime.maskplan import PlanDescriptor, shared_rows

from repro.sched.units import WorkUnit

if TYPE_CHECKING:
    from repro.fleet.workers import WorkerSet

__all__ = [
    "UnitCursor",
    "BatchSlice",
    "SliceOutcome",
    "first_matches",
    "ContinuousBatcher",
]

_ZERO_MASK = np.zeros((1, 4), dtype=np.uint64)


class UnitCursor:
    """Serves mask-word slices across one request's work units, in order."""

    def __init__(self, executor: BatchSearchExecutor, units: list[WorkUnit]):
        self._executor = executor
        self._units: deque[WorkUnit] = deque(units)
        self._batches: Iterator[np.ndarray] | None = None
        self._pending: np.ndarray | None = None
        self._distance = 0
        #: Slices returned to the cursor after a device failed mid-batch;
        #: served before anything else so candidate order is preserved.
        self._replay: deque[tuple[int, np.ndarray]] = deque()

    @property
    def exhausted(self) -> bool:
        """True when every unit has been fully served."""
        return (
            not self._replay
            and self._pending is None
            and self._batches is None
            and not self._units
        )

    @property
    def pending_chunks(self) -> int:
        """Chunks not yet fully served (replayed slices + current + units)."""
        current = 1 if self._pending is not None or self._batches is not None else 0
        return len(self._replay) + current + len(self._units)

    def push_back(self, distance: int, masks: np.ndarray) -> None:
        """Return an unconsumed slice to the *front* of the cursor.

        Used when a device dies mid-batch: the dispatcher pushes the
        failed batch's slices back (in reverse order, so earlier slices
        end up in front) and a surviving device replays them in the
        original candidate order — the byte-equivalence contract holds
        across re-dispatch.
        """
        self._replay.appendleft((distance, masks))

    def take(self, max_rows: int) -> tuple[int, np.ndarray] | None:
        """Up to ``max_rows`` mask words from the current shell.

        Returns ``(distance, masks)`` or ``None`` when exhausted. A
        slice never spans two distances; the distance-0 unit serves the
        all-zero mask (the enrolled seed itself).
        """
        if max_rows < 1:
            raise ValueError("max_rows must be positive")
        while True:
            if self._replay:
                distance, rows = self._replay[0]
                if rows.shape[0] > max_rows:
                    self._replay[0] = (distance, rows[max_rows:])
                    return distance, rows[:max_rows]
                self._replay.popleft()
                return distance, rows
            if self._pending is not None:
                rows = self._pending
                if rows.shape[0] > max_rows:
                    self._pending = rows[max_rows:]
                    return self._distance, rows[:max_rows]
                self._pending = None
                return self._distance, rows
            if self._batches is None:
                if not self._units:
                    return None
                unit = self._units.popleft()
                self._distance = unit.distance
                if unit.distance == 0:
                    self._pending = _ZERO_MASK
                    continue
                self._batches = self._executor.mask_batches(
                    unit.distance, unit.lo, unit.hi
                )
            batch = next(self._batches, None)
            if batch is None:
                self._batches = None
                continue
            self._pending = batch


@dataclass(frozen=True)
class BatchSlice:
    """One request's contribution to a fused device batch."""

    #: Opaque handle the dispatcher uses to route the outcome back.
    key: object
    distance: int
    masks: np.ndarray  # (N, 4) uint64 XOR masks
    base_words: np.ndarray  # (4,) uint64 enrolled seed
    target_words: np.ndarray  # digest words this slice compares against

    @property
    def shared(self) -> tuple[PlanDescriptor, int] | None:
        """``(plan descriptor, first row)`` when ``masks`` is a view of a
        shared-memory plan — all a worker process needs to read the same
        rows — else ``None``."""
        return shared_rows(self.masks)


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
    slices: Sequence[tuple[np.ndarray, np.ndarray, np.ndarray]],
) -> list[int | None]:
    """Fused XOR + hash + compare: per ``(masks, base words, target
    words)`` slice, the lowest row whose candidate hashes to the target.

    Every slice's candidates go through one kernel call. The device
    thread and the worker processes both scan with this, so a row range
    answers the same wherever it is hashed.
    """
    if not slices:
        return []
    candidates = [base_words[None, :] ^ masks for masks, base_words, _t in slices]
    combined = candidates[0] if len(candidates) == 1 else np.concatenate(candidates)
    digests = algo.hash_seeds_batch(combined, fixed_padding=fixed_padding)
    found: list[int | None] = []
    offset = 0
    for (masks, _base_words, target_words) in slices:
        rows = masks.shape[0]
        matches = np.flatnonzero(
            (digests[offset : offset + rows] == target_words).all(axis=1)
        )
        offset += rows
        found.append(int(matches[0]) if matches.size else None)
    return found


class ContinuousBatcher:
    """Fused XOR + hash + compare over slices from many requests.

    With a :class:`~repro.fleet.workers.WorkerSet`, the slices of a wide
    enough batch that are views of shared plans are scanned by the
    worker processes, a contiguous row range each; everything else —
    narrow batches, heap-backed masks, a set of one — is hashed on the
    calling thread. Which of the two scanned a row changes no outcome.
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

    def _sources(
        self, slices: list[BatchSlice], widths: list[int]
    ) -> list[tuple[PlanDescriptor, int] | None] | None:
        """Per slice, where the workers can read it (``None``: hash it
        here) — or ``None`` when the whole batch stays here. Judged on
        what the batch is, never on who sent it."""
        workers = self.workers
        if workers is None or not workers.worth_splitting(sum(widths)):
            return None
        sources = [piece.shared for piece in slices]
        shared = sum(
            width for width, source in zip(widths, sources) if source is not None
        )
        return sources if workers.worth_splitting(shared) else None

    def run(self, slices: list[BatchSlice]) -> list[SliceOutcome]:
        """Scan every slice's candidates as one fused batch.

        Raises :class:`~repro.fleet.workers.WorkerLost` when a worker
        process died under the batch; nothing is reported for it.
        """
        if not slices:
            return []
        start = time.perf_counter()
        widths = [piece.masks.shape[0] for piece in slices]
        scans = [
            (piece.masks, piece.base_words, piece.target_words) for piece in slices
        ]
        sources = self._sources(slices, widths)
        hits: list[int | None]
        if sources is None:
            hits = first_matches(self.algo, self.fixed_padding, scans)
        else:
            assert self.workers is not None
            far = [i for i, source in enumerate(sources) if source is not None]
            near = [i for i, source in enumerate(sources) if source is None]
            far_hits, near_hits = self.workers.scan(
                [(*sources[i], *scans[i]) for i in far],
                lambda: first_matches(
                    self.algo, self.fixed_padding, [scans[i] for i in near]
                ),
            )
            hits = [None] * len(slices)
            for index, hit in zip(far + near, far_hits + near_hits):
                hits[index] = hit
        elapsed = time.perf_counter() - start
        total_rows = sum(widths)
        self.batches += 1
        if len(slices) > 1:
            self.shared_batches += 1

        outcomes: list[SliceOutcome] = []
        for piece, rows, row in zip(slices, widths, hits):
            outcomes.append(
                SliceOutcome(
                    key=piece.key,
                    distance=piece.distance,
                    rows=rows,
                    seed=(
                        None
                        if row is None
                        else words_to_seed(piece.base_words ^ piece.masks[row])
                    ),
                    seconds=elapsed * (rows / total_rows),
                )
            )
        return outcomes
