"""Work-unit decomposition: one search becomes schedulable shell chunks.

Algorithm 1 explores the Hamming ball shell by shell. The scheduler
needs something finer than "one request = one unit of work": a d=4
request holds the device for the whole ``C(256, 4)`` shell if it cannot
be set aside mid-shell. This module slices each shell into contiguous
rank chunks (the same half-open rank geometry the partitioner gives the
parallel engines), so the dispatcher can interleave chunks of many
requests and retire the remainder of a request the moment its seed is
found.

Chunk geometry is a pure function of ``(distance, shell size,
chunk_ranks)`` — every request at the same search depth produces
identical ``(distance, lo, hi)`` chunks. A chunk is only ranks: its
candidates are made where they are hashed
(:func:`repro.runtime.maskplan.candidates`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro._bitutils import SEED_BITS
from repro.combinatorics.binomial import binomial
from repro.runtime.partition import partition_ranks

__all__ = ["WorkUnit", "decompose_search", "expected_work", "DEFAULT_CHUNK_RANKS"]

#: Default chunk size in candidate seeds. Large enough that full device
#: batches fit inside one chunk (8x the default 16384 lane width), small
#: enough that a deep shell yields thousands of preemption points.
DEFAULT_CHUNK_RANKS = 1 << 17


@dataclass(frozen=True)
class WorkUnit:
    """One schedulable chunk: ranks ``[lo, hi)`` of one Hamming shell.

    Distance 0 is the single-candidate probe of the enrolled seed itself
    (Algorithm 1 lines 4-8), expressed as the unit ``(0, 0, 1)`` so the
    dispatcher treats it like any other chunk.
    """

    distance: int
    lo: int
    hi: int

    @property
    def cost(self) -> int:
        """Candidate seeds this unit hashes."""
        return self.hi - self.lo


def decompose_search(
    max_distance: int,
    chunk_ranks: int = DEFAULT_CHUNK_RANKS,
    n_bits: int = SEED_BITS,
) -> list[WorkUnit]:
    """Slice a full search into work units, in execution order.

    Order is the protocol's: the distance-0 probe first, then shells in
    ascending distance, and ascending rank within each shell — running
    the units sequentially visits candidates in exactly the order the
    single-process engine does, which is what keeps scheduled results
    byte-identical to unscheduled ones.
    """
    if max_distance < 0:
        raise ValueError("max_distance must be non-negative")
    if chunk_ranks < 1:
        raise ValueError("chunk_ranks must be positive")
    units = [WorkUnit(0, 0, 1)]
    for distance in range(1, max_distance + 1):
        total = binomial(n_bits, distance)
        parts = max(1, -(-total // chunk_ranks))  # ceil division
        for lo, hi in partition_ranks(total, parts):
            if lo < hi:
                units.append(WorkUnit(distance, lo, hi))
    return units


def expected_work(max_distance: int, n_bits: int = SEED_BITS) -> int:
    """Exhaustive candidate count for a search to ``max_distance``.

    Equation 1's server-side cost — what the admission controller and
    the shortest-expected-work-first ordering charge a request before it
    has run (the running remainder is tracked per request as chunks
    complete).
    """
    if max_distance < 0:
        raise ValueError("max_distance must be non-negative")
    return 1 + sum(
        binomial(n_bits, distance) for distance in range(1, max_distance + 1)
    )
