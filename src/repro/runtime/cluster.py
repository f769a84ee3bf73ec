"""Distributed-memory RBC search — the paper's Section 5 future work.

Philabaum et al. scaled the original RBC across 512 CPU cores with MPI;
the paper proposes doing the same for SALTED-CPU since it measured
near-perfect single-node efficiency. This module implements that design
with an mpi4py-shaped decomposition, executed in-process:

* the root *broadcasts* the search task (base seed, digest, d);
* every rank owns a contiguous rank-slice of each Hamming shell
  (the same partitioning the threads use, one level up);
* ranks search their slices with the real vectorized executor;
* a found seed is *allreduced* (the distributed early-exit flag);
* the root *gathers* per-rank statistics.

Each rank's slice really executes (vectorized NumPy); the cluster wall
clock is modeled as the slowest concurrent rank plus interconnect costs,
which is exactly how a synchronous MPI search behaves. The interconnect
cost model is explicit and auditable.

Rank-level faults are first-class: a fault injector (see
:class:`~repro.reliability.faults.ClusterFaultInjector`) can kill ranks
outright or slow them down. A dead rank's shell slices are *recovered* —
re-partitioned onto the survivors and searched in a second pass — and
the extra wall time (failure detection, the recovery compute, one more
fabric round) is accounted honestly in the result.

The engine returns the unified
:class:`~repro.engines.result.SearchResult`; the per-rank accounting
rides in the result's :class:`~repro.engines.result.ClusterStats`
extension (``result.cluster``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro._bitutils import SEED_BITS
from repro.combinatorics.binomial import binomial
from repro.engines.registry import build_engine
from repro.engines.result import ClusterStats, SearchResult, merge_shells
from repro.hashes.registry import HashAlgorithm, get_hash
from repro.runtime.partition import partition_ranks

__all__ = ["Interconnect", "ClusterSearchExecutor"]


@dataclass(frozen=True)
class Interconnect:
    """Per-operation costs of the cluster fabric (seconds)."""

    name: str = "10GbE"
    broadcast_seconds: float = 2e-3
    allreduce_seconds: float = 5e-3
    gather_seconds: float = 3e-3
    #: Early-exit propagation: how stale a remote rank's view of the
    #: found-flag may be (it finishes its current batch + this delay).
    exit_propagation_seconds: float = 5e-3
    #: Heartbeat timeout before the survivors declare a rank dead and
    #: re-partition its slices.
    failure_detection_seconds: float = 5e-2

    def round_cost(self, ranks: int) -> float:
        """Fixed fabric cost of one search round with ``ranks`` nodes."""
        if ranks <= 1:
            return 0.0
        return self.broadcast_seconds + self.allreduce_seconds + self.gather_seconds


class ClusterSearchExecutor:
    """SALTED search distributed over ``ranks`` single-node engines."""

    def __init__(
        self,
        ranks: int,
        hash_name: str = "sha3-256",
        batch_size: int = 16384,
        interconnect: Interconnect | None = None,
        fault_injector=None,
    ):
        if ranks < 1:
            raise ValueError("ranks must be positive")
        self.ranks = ranks
        self.hash_name = hash_name
        self.batch_size = batch_size
        self.interconnect = interconnect if interconnect is not None else Interconnect()
        #: Optional rank-fault source: anything exposing ``dead_ranks``
        #: (a set of ints) and ``straggle_factor(rank) -> float``.
        self.fault_injector = fault_injector

    @property
    def algo(self) -> HashAlgorithm:
        """The hash every rank searches with."""
        return get_hash(self.hash_name)

    def describe(self) -> str:
        """Canonical spec string for this engine's configuration."""
        return (
            f"cluster:{self.ranks},hash={self.hash_name},bs={self.batch_size}"
        )

    def _rank_slices(self, max_distance: int, rank: int) -> dict[int, tuple[int, int]]:
        slices = {}
        for distance in range(1, max_distance + 1):
            ranges = partition_ranks(binomial(SEED_BITS, distance), self.ranks)
            slices[distance] = ranges[rank]
        return slices

    def _make_executor(self):
        return build_engine(
            "batch", hash_name=self.hash_name, batch_size=self.batch_size
        )

    def _run_slices(
        self,
        base_seed: bytes,
        target_digest: bytes,
        max_distance: int,
        slices: dict[int, tuple[int, int]],
        time_budget: float | None,
        owns_distance_zero: bool,
    ) -> SearchResult:
        """One node's share of the search, with the d=0 ownership rule.

        Every engine checks the d=0 candidate (Algorithm 1 lines 4-8);
        only the node that *owns* it may report it, so the protocol
        counts that hash exactly once across the cluster.
        """
        result = self._make_executor().search(
            base_seed,
            target_digest,
            max_distance,
            time_budget=time_budget,
            rank_range_by_distance=slices,
        )
        if result.distance == 0 and not owns_distance_zero:
            result = SearchResult(
                False, None, None, result.seeds_hashed, result.elapsed_seconds,
                shells=result.shells,
            )
        return result

    def search(
        self,
        base_seed: bytes,
        target_digest: bytes,
        max_distance: int,
        time_budget: float | None = None,
    ) -> SearchResult:
        """Run the distributed search (each rank's slice really executes)."""
        simulation_start = time.perf_counter()
        faults = self.fault_injector
        dead = frozenset(faults.dead_ranks) if faults is not None else frozenset()
        if len(dead) >= self.ranks:
            raise RuntimeError("no surviving ranks: the whole cluster is dead")
        survivors = [rank for rank in range(self.ranks) if rank not in dead]

        def effective(rank: int, seconds: float) -> float:
            if faults is None:
                return seconds
            return seconds * faults.straggle_factor(rank)

        per_rank_results: dict[int, SearchResult] = {}
        for rank in survivors:
            per_rank_results[rank] = self._run_slices(
                base_seed,
                target_digest,
                max_distance,
                self._rank_slices(max_distance, rank),
                time_budget,
                owns_distance_zero=(rank == 0),
            )

        per_rank_seconds = tuple(
            effective(rank, per_rank_results[rank].elapsed_seconds)
            if rank in per_rank_results
            else 0.0
            for rank in range(self.ranks)
        )
        per_rank_hashed = tuple(
            per_rank_results[rank].seeds_hashed if rank in per_rank_results else 0
            for rank in range(self.ranks)
        )
        any_rank_timed_out = any(
            res.timed_out for res in per_rank_results.values()
        )
        shells = merge_shells([res.shells for res in per_rank_results.values()])
        fabric = self.interconnect.round_cost(self.ranks)
        stragglers = (
            tuple(r for r in faults.straggler_ranks if r in per_rank_results)
            if faults is not None and hasattr(faults, "straggler_ranks")
            else ()
        )

        def finish(
            *,
            found: bool,
            seed: bytes | None,
            distance: int | None,
            finder_rank: int | None,
            seeds_hashed: int,
            wall: float,
            recovery_seconds: float = 0.0,
        ) -> SearchResult:
            timed_out = not found and (
                any_rank_timed_out
                or (time_budget is not None and wall > time_budget)
            )
            return SearchResult(
                found=found,
                seed=seed,
                distance=distance,
                seeds_hashed=seeds_hashed,
                elapsed_seconds=wall,
                timed_out=timed_out,
                shells=shells,
                engine=self.describe(),
                cluster=ClusterStats(
                    finder_rank=finder_rank,
                    per_rank_seconds=per_rank_seconds,
                    per_rank_hashed=per_rank_hashed,
                    dead_ranks=tuple(sorted(dead)),
                    straggler_ranks=stragglers,
                    recovery_seconds=recovery_seconds,
                    simulation_seconds=time.perf_counter() - simulation_start,
                ),
            )

        finders = [
            (rank, res) for rank, res in sorted(per_rank_results.items()) if res.found
        ]
        if finders:
            # The earliest finder in wall time wins the allreduce.
            finder_rank, res = min(
                finders, key=lambda item: effective(item[0], item[1].elapsed_seconds)
            )
            # Concurrent wall time: the finder's time, plus every other
            # rank draining its in-flight batch after flag propagation —
            # bounded by finder time + propagation (they poll per batch).
            wall = (
                effective(finder_rank, res.elapsed_seconds)
                + (self.interconnect.exit_propagation_seconds if self.ranks > 1 else 0.0)
                + fabric
            )
            return finish(
                found=True,
                seed=res.seed,
                distance=res.distance,
                finder_rank=finder_rank,
                seeds_hashed=sum(per_rank_hashed),
                wall=wall,
            )

        # First pass exhausted. If ranks died, their slices have not been
        # searched: the survivors detect the failure, re-partition the
        # dead slices among themselves, and run a recovery pass.
        first_pass_wall = max(per_rank_seconds) + fabric
        recovery_seconds = 0.0
        recovery_hashed = 0
        recovery_finder: tuple[int, SearchResult] | None = None
        if dead:
            recovery_shells: list[tuple] = []
            per_survivor_recovery = [0.0] * len(survivors)
            for dead_rank in sorted(dead):
                dead_slices = self._rank_slices(max_distance, dead_rank)
                for position, survivor in enumerate(survivors):
                    slices = {}
                    for distance, (lo, hi) in dead_slices.items():
                        sub = partition_ranks(hi - lo, len(survivors))[position]
                        slices[distance] = (lo + sub[0], lo + sub[1])
                    result = self._run_slices(
                        base_seed,
                        target_digest,
                        max_distance,
                        slices,
                        time_budget,
                        # The d=0 candidate transfers to the first
                        # survivor when its owner (rank 0) died.
                        owns_distance_zero=(dead_rank == 0 and position == 0),
                    )
                    recovery_hashed += result.seeds_hashed
                    recovery_shells.append(result.shells)
                    per_survivor_recovery[position] += effective(
                        survivor, result.elapsed_seconds
                    )
                    if result.found and recovery_finder is None:
                        recovery_finder = (survivor, result)
            recovery_seconds = (
                self.interconnect.failure_detection_seconds
                + max(per_survivor_recovery)
                + fabric
            )
            shells = merge_shells([shells, *recovery_shells])

        if recovery_finder is not None:
            finder_rank, res = recovery_finder
            return finish(
                found=True,
                seed=res.seed,
                distance=res.distance,
                finder_rank=finder_rank,
                seeds_hashed=sum(per_rank_hashed) + recovery_hashed,
                wall=first_pass_wall + recovery_seconds,
                recovery_seconds=recovery_seconds,
            )
        return finish(
            found=False,
            seed=None,
            distance=None,
            finder_rank=None,
            seeds_hashed=sum(per_rank_hashed) + recovery_hashed,
            wall=first_pass_wall + recovery_seconds,
            recovery_seconds=recovery_seconds,
        )
