"""Process-wide cache of precomputed mask-word plans.

The per-candidate work of Algorithm 1 is *supposed* to be one hash
(paper Section 3.2), but the serving path re-paid two search-invariant
costs on every request: unranking the same combinations and rebuilding
the same XOR mask words. Both depend only on
``(distance, rank range, iterator)`` — never on the seed under search —
so they are computed once here and shared.

A :class:`MaskPlan` is the materialized ``(hi - lo, 4)`` uint64 mask
array for one Hamming-distance shell slice; :class:`MaskPlanCache` is a
bounded LRU over plans keyed by ``(distance, lo, hi, batch_size,
iterator)``. Plans are backed by POSIX shared memory when available, so
the fleet's worker processes (:mod:`repro.fleet.workers`) map the *same*
physical pages (via :func:`attach_plan`) and are sent only a
:class:`PlanDescriptor` and a row range; :func:`shared_rows` tells
whether a mask array is such a view. On platforms without shared memory
the cache degrades to process-local heap arrays, which are hashed where
they are.

Lifecycle: the cache owns its shared-memory segments and unlinks them
on eviction, :meth:`MaskPlanCache.clear`, and interpreter exit. Whoever
holds a mapping of an evicted segment — a search still reading its
views here, a worker that attached it — keeps using it safely (POSIX
semantics); only *new* attaches fail, and those rows are then hashed by
the process that still has them mapped.
"""

from __future__ import annotations

import atexit
import sys
import threading
from collections import OrderedDict
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from repro._bitutils import SEED_BITS, SEED_WORDS64, positions_to_mask_words
from repro.combinatorics.algorithm154 import Algorithm154Iterator
from repro.combinatorics.algorithm382 import Algorithm382Iterator
from repro.combinatorics.algorithm515 import Algorithm515Iterator
from repro.combinatorics.chase382 import Chase382Iterator
from repro.combinatorics.gosper import GosperIterator
from repro.combinatorics.ranking import unrank_lexicographic_batch

__all__ = [
    "ITERATOR_CHOICES",
    "combination_batches",
    "MaskPlan",
    "PlanDescriptor",
    "MaskPlanCache",
    "global_plan_cache",
    "shared_rows",
    "attach_plan",
    "detach_plan",
]

ITERATOR_CHOICES = (
    "unrank", "chase", "chase-382", "gosper", "lex", "unrank-scalar",
)

_SCALAR_ITERATORS = {
    "chase": Algorithm382Iterator,      # revolving-door minimal change
    "chase-382": Chase382Iterator,      # Chase's Algorithm 382 proper
    "gosper": GosperIterator,
    "lex": Algorithm154Iterator,
    "unrank-scalar": Algorithm515Iterator,
}

_MASK_ROW_BYTES = SEED_WORDS64 * 8  # one (4,) uint64 mask row

#: Default cache budget: enough for every shell slice at d <= 2 plus the
#: working set of d = 3 slices, small next to the search's own batches.
DEFAULT_MAX_BYTES = 256 * 1024 * 1024
#: Slices bigger than this are never cached (the steady-state win cannot
#: justify pinning them); callers stream masks instead.
DEFAULT_MAX_PLAN_BYTES = 64 * 1024 * 1024


def combination_batches(
    distance: int,
    start: int,
    stop: int,
    batch_size: int,
    iterator: str = "unrank",
) -> Iterator[np.ndarray]:
    """Yield ``(N, distance)`` position arrays covering ranks [start, stop).

    The one combination source shared by the batch executor, the plan
    builder, and the calibration probes. ``"unrank"`` is the vectorized
    Algorithm-515-style fast path; the scalar iterator names step a
    :class:`~repro.combinatorics.iterator_base.CombinationIterator`.
    """
    if iterator not in ITERATOR_CHOICES:
        raise ValueError(
            f"unknown iterator {iterator!r}; choices: {ITERATOR_CHOICES}"
        )
    if iterator == "unrank":
        for lo in range(start, stop, batch_size):
            hi = min(lo + batch_size, stop)
            ranks = np.arange(lo, hi, dtype=np.uint64)
            yield unrank_lexicographic_batch(SEED_BITS, distance, ranks)
        return
    scalar = _SCALAR_ITERATORS[iterator](SEED_BITS, distance)
    scalar.skip_to(start)
    remaining = stop - start
    while remaining > 0:
        count = min(batch_size, remaining)
        combos = scalar.take(count)
        yield np.array(combos, dtype=np.int64)
        remaining -= len(combos)
        if len(combos) < count:
            return  # sequence exhausted early (shouldn't happen)
        if remaining > 0 and not scalar.advance():
            return


@dataclass(frozen=True)
class PlanDescriptor:
    """How a worker process finds a shared plan: segment name + geometry."""

    shm_name: str
    rows: int
    distance: int
    lo: int
    hi: int
    batch_size: int
    iterator: str


@dataclass
class MaskPlan:
    """One precomputed shell slice: ``(hi - lo, 4)`` uint64 XOR masks."""

    distance: int
    lo: int
    hi: int
    batch_size: int
    iterator: str
    masks: np.ndarray
    #: Owning SharedMemory segment, or None for heap-backed plans.
    shm: object | None = None

    @property
    def key(self) -> tuple[int, int, int, int, str]:
        return (self.distance, self.lo, self.hi, self.batch_size, self.iterator)

    @property
    def nbytes(self) -> int:
        return int(self.masks.nbytes)

    def batches(self) -> Iterator[np.ndarray]:
        """Mask views of at most ``batch_size`` rows, in rank order."""
        for start in range(0, self.masks.shape[0], self.batch_size):
            yield self.masks[start : start + self.batch_size]

    def descriptor(self) -> PlanDescriptor | None:
        """Attachment descriptor for worker processes; None if heap-backed."""
        if self.shm is None:
            return None
        return PlanDescriptor(
            shm_name=self.shm.name,  # type: ignore[attr-defined]
            rows=self.masks.shape[0],
            distance=self.distance,
            lo=self.lo,
            hi=self.hi,
            batch_size=self.batch_size,
            iterator=self.iterator,
        )


class _SegmentRows(np.ndarray):
    """The array over one whole shared segment.

    Every view of a shared plan ends its ``.base`` chain at this anchor:
    it keeps the mapping open for as long as any view is alive, and it
    tells :func:`shared_rows` which segment a view reads.
    """

    shm: object | None = None
    descriptor: PlanDescriptor | None = None


def shared_rows(masks: np.ndarray) -> tuple[PlanDescriptor, int] | None:
    """``(descriptor, first row)`` when ``masks`` is a run of whole rows
    of a shared plan, so that another process can read the same rows
    through :func:`attach_plan`; ``None`` for heap-backed masks."""
    anchor = masks
    while isinstance(anchor.base, np.ndarray):
        anchor = anchor.base
    descriptor = getattr(anchor, "descriptor", None)
    if descriptor is None or not masks.flags.c_contiguous:
        return None
    offset = masks.ctypes.data - anchor.ctypes.data
    return descriptor, offset // _MASK_ROW_BYTES


def _build_mask_rows(
    distance: int, lo: int, hi: int, batch_size: int, iterator: str,
    out: np.ndarray,
) -> None:
    """Fill ``out`` (shape ``(hi - lo, 4)``) with the slice's masks."""
    row = 0
    for positions in combination_batches(distance, lo, hi, batch_size, iterator):
        masks = positions_to_mask_words(positions)
        out[row : row + masks.shape[0]] = masks
        row += masks.shape[0]
    if row != hi - lo:
        raise RuntimeError(
            f"iterator {iterator!r} produced {row} masks for "
            f"[{lo}, {hi}) at distance {distance}"
        )


class MaskPlanCache:
    """Bounded, thread-safe LRU cache of :class:`MaskPlan` objects.

    ``use_shared_memory`` selects the backing store; when shared-memory
    creation fails at runtime (no /dev/shm, exhausted names) the cache
    transparently builds heap-backed plans instead.
    """

    def __init__(
        self,
        max_bytes: int = DEFAULT_MAX_BYTES,
        max_plan_bytes: int = DEFAULT_MAX_PLAN_BYTES,
        use_shared_memory: bool = True,
    ):
        if max_bytes < 1:
            raise ValueError("max_bytes must be positive")
        self.max_bytes = max_bytes
        self.max_plan_bytes = min(max_plan_bytes, max_bytes)
        self.use_shared_memory = use_shared_memory
        self._plans: OrderedDict[tuple[int, int, int, int, str], MaskPlan]
        self._plans = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.bypasses = 0
        self.bytes_in_use = 0
        # Unlink this cache's shared segments at interpreter exit, so
        # short-lived private caches don't trip the resource tracker's
        # leaked-segment warning.
        atexit.register(self.clear)

    # -- allocation -----------------------------------------------------

    def _allocate(self, rows: int) -> tuple[np.ndarray, object | None]:
        """A zeroed ``(rows, 4)`` uint64 array, shared-memory backed if we can."""
        nbytes = max(rows * _MASK_ROW_BYTES, 1)
        if self.use_shared_memory:
            try:
                from multiprocessing import shared_memory

                shm = shared_memory.SharedMemory(create=True, size=nbytes)
                anchor = _SegmentRows(
                    (rows, SEED_WORDS64), dtype=np.uint64, buffer=shm.buf
                )
                anchor.shm = shm
                masks = anchor.view(np.ndarray)
                masks.fill(0)
                return masks, shm
            except (OSError, ValueError):
                pass
        return np.zeros((rows, SEED_WORDS64), dtype=np.uint64), None

    @staticmethod
    def _release(plan: MaskPlan) -> None:
        """Drop the segment's name; its anchor closes the mapping once
        the last view of the plan is gone (closing it here would pull the
        pages from under a search still reading them)."""
        if plan.shm is not None:
            try:
                plan.shm.unlink()  # type: ignore[attr-defined]
            except OSError:
                pass
            plan.shm = None

    # -- cache interface ------------------------------------------------

    def get_or_build(
        self,
        distance: int,
        lo: int,
        hi: int,
        batch_size: int,
        iterator: str = "unrank",
    ) -> tuple[MaskPlan | None, bool]:
        """``(plan, was_hit)`` for the slice; ``(None, False)`` if too big.

        A returned plan stays valid for the caller even if it is evicted
        mid-search (eviction unlinks the shared segment's *name*; live
        mappings persist until dropped).
        """
        if lo >= hi:
            return None, False
        key = (distance, lo, hi, batch_size, iterator)
        with self._lock:
            plan = self._plans.get(key)
            if plan is not None:
                self._plans.move_to_end(key)
                self.hits += 1
                return plan, True
        rows = hi - lo
        if rows * _MASK_ROW_BYTES > self.max_plan_bytes:
            with self._lock:
                self.bypasses += 1
            return None, False
        # Build outside the lock — plan construction is the expensive
        # part and must not serialize concurrent searches. A racing
        # duplicate build is benign: last writer wins, bytes stay bounded.
        masks, shm = self._allocate(rows)
        try:
            _build_mask_rows(distance, lo, hi, batch_size, iterator, masks)
        except BaseException:
            MaskPlanCache._release(
                MaskPlan(distance, lo, hi, batch_size, iterator, masks, shm)
            )
            raise
        plan = MaskPlan(distance, lo, hi, batch_size, iterator, masks, shm)
        if shm is not None:
            masks.base.descriptor = plan.descriptor()  # the anchor
        with self._lock:
            self.misses += 1
            existing = self._plans.pop(key, None)
            if existing is not None:
                # Lost a build race; keep the incumbent, drop ours.
                self._plans[key] = existing
                self._plans.move_to_end(key)
                stale = plan
            else:
                self._plans[key] = plan
                self.bytes_in_use += plan.nbytes
                stale = None
                self._evict_to_bound_locked()
        if stale is not None:
            MaskPlanCache._release(stale)
            with self._lock:
                return self._plans[key], False
        return plan, False

    def get(
        self, distance: int, lo: int, hi: int, batch_size: int,
        iterator: str = "unrank",
    ) -> MaskPlan | None:
        """The cached plan for the slice, or None (counts as hit/miss)."""
        key = (distance, lo, hi, batch_size, iterator)
        with self._lock:
            plan = self._plans.get(key)
            if plan is None:
                self.misses += 1
                return None
            self._plans.move_to_end(key)
            self.hits += 1
            return plan

    def _evict_to_bound_locked(self) -> None:
        while self.bytes_in_use > self.max_bytes and len(self._plans) > 1:
            _key, plan = self._plans.popitem(last=False)
            self.bytes_in_use -= plan.nbytes
            self.evictions += 1
            MaskPlanCache._release(plan)

    def clear(self) -> None:
        """Drop every plan and unlink all shared segments."""
        with self._lock:
            plans = list(self._plans.values())
            self._plans.clear()
            self.bytes_in_use = 0
        for plan in plans:
            MaskPlanCache._release(plan)

    def stats(self) -> dict[str, int]:
        """A consistent snapshot of the cache counters."""
        with self._lock:
            return {
                "plans": len(self._plans),
                "bytes_in_use": self.bytes_in_use,
                "max_bytes": self.max_bytes,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "bypasses": self.bypasses,
            }

    def __len__(self) -> int:
        with self._lock:
            return len(self._plans)


_global_cache: MaskPlanCache | None = None
_global_lock = threading.Lock()


def global_plan_cache() -> MaskPlanCache:
    """The process-wide cache shared by every cache-enabled engine."""
    global _global_cache
    with _global_lock:
        if _global_cache is None:
            _global_cache = MaskPlanCache()
        return _global_cache


# -- worker-side attachment --------------------------------------------


#: ``track=False`` (3.13+) attaches without telling a resource tracker.
_UNTRACKED = {"track": False} if sys.version_info >= (3, 13) else {}


def attach_plan(descriptor: PlanDescriptor) -> MaskPlan | None:
    """Map a shared plan built by the owning process; None if it was evicted.

    The returned plan's ``shm`` handle must be released with
    :func:`detach_plan` (close only — the owner does the unlink). The
    caller is the owner itself or a process forked from it once its
    resource tracker ran (:class:`repro.fleet.workers.WorkerSet` sees to
    that): before 3.13 an attach registers the name with the tracker it
    finds, which is then the owner's, where the name already is — and
    where an ``unregister`` from here would drop the *owner's* entry, so
    that its unlink trips the tracker and a crashed owner leaks the
    segment.
    """
    try:
        from multiprocessing import shared_memory

        shm = shared_memory.SharedMemory(name=descriptor.shm_name, **_UNTRACKED)
    except (OSError, ValueError, ImportError):
        return None
    masks = np.ndarray(
        (descriptor.rows, SEED_WORDS64), dtype=np.uint64, buffer=shm.buf
    )
    return MaskPlan(
        distance=descriptor.distance,
        lo=descriptor.lo,
        hi=descriptor.hi,
        batch_size=descriptor.batch_size,
        iterator=descriptor.iterator,
        masks=masks,
        shm=shm,
    )


def detach_plan(plan: MaskPlan) -> None:
    """Drop a worker's mapping of a shared plan (never unlinks)."""
    if plan.shm is not None:
        try:
            plan.masks = np.empty((0, SEED_WORDS64), dtype=np.uint64)
            plan.shm.close()  # type: ignore[attr-defined]
        except OSError:
            pass
        plan.shm = None
