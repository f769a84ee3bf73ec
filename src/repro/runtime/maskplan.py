"""Where candidates come from: the served path's fallback rank-range
generator and the ``batch:`` reference's mask-plan cache.

The paper hands each thread a *rank range*: the thread unranks its first
combination (Algorithm 515) and walks on from there (Section 3.2,
Table 4), so nothing but the range crosses a boundary. The dispatcher's
compiled scan (``hashes/fused.c``) does exactly that in C and makes no
candidate array. :func:`candidates` is the same walk in NumPy, for a
fleet that hashes with ``hashlib`` (no compiler, or a hash the kernel
does not scan) and as the C walk's oracle: ranks ``[lo, hi)`` of one
Hamming shell become their ``(hi - lo, 4)`` uint64 candidate words, in
lexicographic rank order. It reads one process-wide table of the d = 1
and d = 2 masks (256 + 32 640 rows, about 1 MB). A deeper shell is a run
of (d - 2)-prefix groups, and each group is a contiguous suffix of the
d = 2 table XOR ``prefix mask ^ base``: one broadcast XOR per group
instead of one unrank per candidate.

The ``batch:`` engine (:class:`~repro.runtime.executor.BatchSearchExecutor`)
keeps its own source on purpose, so that it stays an independent
reference for the dispatcher: :func:`combination_batches` unranks (or
steps a scalar iterator), and with ``cache=yes`` a :class:`MaskPlanCache`
— a bounded LRU of materialized ``(hi - lo, 4)`` mask arrays keyed by
``(distance, lo, hi, batch_size, iterator)`` — keeps what it built.
"""

from __future__ import annotations

import functools
import itertools
import threading
from collections import OrderedDict
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from repro._bitutils import SEED_BITS, SEED_WORDS64, positions_to_mask_words
from repro.combinatorics.algorithm154 import Algorithm154Iterator
from repro.combinatorics.algorithm382 import Algorithm382Iterator
from repro.combinatorics.algorithm515 import (
    Algorithm515Iterator,
    unrank_lexicographic,
)
from repro.combinatorics.binomial import binomial
from repro.combinatorics.chase382 import Chase382Iterator
from repro.combinatorics.gosper import GosperIterator
from repro.combinatorics.ranking import unrank_lexicographic_batch

__all__ = [
    "ITERATOR_CHOICES",
    "candidates",
    "mask_tables",
    "combination_batches",
    "MaskPlan",
    "MaskPlanCache",
    "global_plan_cache",
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

#: Rows of the d = 2 table.
_PAIRS = binomial(SEED_BITS, 2)


# -- the served path's candidates -----------------------------------------


@functools.cache
def mask_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The d = 0, 1 and 2 shells' masks in lexicographic rank order.

    Built once per process, read-only, and shared by every thread.
    """
    pairs = np.fromiter(
        itertools.chain.from_iterable(itertools.combinations(range(SEED_BITS), 2)),
        dtype=np.int64,
        count=2 * _PAIRS,
    ).reshape(_PAIRS, 2)
    tables = (
        np.zeros((1, SEED_WORDS64), dtype=np.uint64),
        positions_to_mask_words(np.arange(SEED_BITS)[:, None]),
        positions_to_mask_words(pairs),
    )
    for table in tables:
        table.flags.writeable = False
    return tables


def _pairs_from(low: int) -> int:
    """First row of the d = 2 table whose lower bit is ``low`` or above."""
    return _PAIRS - binomial(SEED_BITS - low, 2)


def _next_prefix(prefix: list[int]) -> list[int]:
    """The lexicographic successor among prefixes with a non-empty group
    (every bit below ``SEED_BITS - 2``, so that two more fit above)."""
    k = len(prefix)
    i = k - 1
    while prefix[i] == SEED_BITS - 3 - (k - 1 - i):
        i -= 1
    return prefix[:i] + list(range(prefix[i] + 1, prefix[i] + 1 + k - i))


def candidates(
    distance: int, lo: int, hi: int, base_words: np.ndarray
) -> np.ndarray:
    """``(hi - lo, 4)`` uint64 words: ``base_words`` with the bits of each
    lexicographic rank in ``[lo, hi)`` of the ``distance`` shell flipped.

    Distance 0 is the one-rank shell of ``base_words`` itself. The
    served path calls this only when it hashes with ``hashlib``; the
    compiled scan walks the same ranks in C.
    """
    if not 0 <= lo <= hi <= binomial(SEED_BITS, distance):
        raise IndexError(f"ranks [{lo}, {hi}) outside shell {distance}")
    tables = mask_tables()
    if distance <= 2:
        return tables[distance][lo:hi] ^ base_words
    singles, pairs = tables[1], tables[2]
    out = np.empty((hi - lo, SEED_WORDS64), dtype=np.uint64)
    if lo == hi:
        return out
    *prefix, low, high = unrank_lexicographic(SEED_BITS, distance, lo)
    row = 0
    start = _pairs_from(low) + high - low - 1  # rank lo's suffix pair
    while True:
        take = min(_PAIRS - start, hi - lo - row)
        head = np.bitwise_xor.reduce(singles[prefix], axis=0) ^ base_words
        np.bitwise_xor(pairs[start : start + take], head, out=out[row : row + take])
        row += take
        if row == hi - lo:
            return out
        prefix = _next_prefix(prefix)
        start = _pairs_from(prefix[-1] + 1)


# -- the batch: reference's masks -----------------------------------------


def combination_batches(
    distance: int,
    start: int,
    stop: int,
    batch_size: int,
    iterator: str = "unrank",
) -> Iterator[np.ndarray]:
    """Yield ``(N, distance)`` position arrays covering ranks [start, stop).

    The combination source of the batch executor, the plan builder, and
    the calibration probes. ``"unrank"`` is the vectorized
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


@dataclass
class MaskPlan:
    """One precomputed shell slice: ``(hi - lo, 4)`` uint64 XOR masks."""

    distance: int
    lo: int
    hi: int
    batch_size: int
    iterator: str
    masks: np.ndarray

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


def _build_mask_rows(
    distance: int, lo: int, hi: int, batch_size: int, iterator: str
) -> np.ndarray:
    """The slice's ``(hi - lo, 4)`` masks."""
    out = np.empty((hi - lo, SEED_WORDS64), dtype=np.uint64)
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
    return out


class MaskPlanCache:
    """Bounded, thread-safe LRU cache of heap-backed :class:`MaskPlan`\\ s."""

    def __init__(
        self,
        max_bytes: int = DEFAULT_MAX_BYTES,
        max_plan_bytes: int = DEFAULT_MAX_PLAN_BYTES,
    ):
        if max_bytes < 1:
            raise ValueError("max_bytes must be positive")
        self.max_bytes = max_bytes
        self.max_plan_bytes = min(max_plan_bytes, max_bytes)
        self._plans: OrderedDict[tuple[int, int, int, int, str], MaskPlan]
        self._plans = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.bypasses = 0
        self.bytes_in_use = 0

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
        mid-search.
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
        # duplicate build is benign: the incumbent stays, bytes stay bounded.
        plan = MaskPlan(
            distance, lo, hi, batch_size, iterator,
            _build_mask_rows(distance, lo, hi, batch_size, iterator),
        )
        with self._lock:
            self.misses += 1
            existing = self._plans.get(key)
            if existing is not None:
                self._plans.move_to_end(key)
                return existing, False
            self._plans[key] = plan
            self.bytes_in_use += plan.nbytes
            while self.bytes_in_use > self.max_bytes and len(self._plans) > 1:
                _key, evicted = self._plans.popitem(last=False)
                self.bytes_in_use -= evicted.nbytes
                self.evictions += 1
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

    def clear(self) -> None:
        """Drop every plan."""
        with self._lock:
            self._plans.clear()
            self.bytes_in_use = 0

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
