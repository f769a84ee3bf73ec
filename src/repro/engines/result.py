"""The one instrumented outcome type every search engine returns.

Single-node and distributed engines return the same shape: per-rank
statistics are an optional :class:`ClusterStats` extension (read
``result.cluster.<field>``), and ``timed_out`` / ``shells`` are populated
by every engine, so one telemetry shape flows from the combinator-driven
kernels all the way up to the servers.

Nothing in this module imports from the rest of :mod:`repro` — it is the
bottom of the engine-stack dependency graph, safe to import from any
layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol, runtime_checkable

__all__ = [
    "ShellStats",
    "merge_shells",
    "AmortizationStats",
    "ClusterStats",
    "SchedulingStats",
    "FleetStats",
    "DirectoryStats",
    "SearchResult",
    "SearchEngine",
]


@dataclass(frozen=True)
class ShellStats:
    """Per-Hamming-distance breakdown of one search."""

    distance: int
    seeds_hashed: int
    seconds: float

    @property
    def throughput(self) -> float:
        """Seeds hashed per second within this shell."""
        return self.seeds_hashed / self.seconds if self.seconds > 0 else 0.0


def merge_shells(
    shell_groups: "list[tuple[ShellStats, ...]]",
) -> tuple[ShellStats, ...]:
    """Merge concurrent per-worker shell stats into one per-distance view.

    Seed counts add across workers; seconds take the slowest worker
    (the shells ran concurrently, so the maximum is the wall time).
    """
    hashed: dict[int, int] = {}
    seconds: dict[int, float] = {}
    for shells in shell_groups:
        for shell in shells:
            hashed[shell.distance] = hashed.get(shell.distance, 0) + shell.seeds_hashed
            seconds[shell.distance] = max(
                seconds.get(shell.distance, 0.0), shell.seconds
            )
    return tuple(
        ShellStats(distance, hashed[distance], seconds[distance])
        for distance in sorted(hashed)
    )


@dataclass(frozen=True)
class AmortizationStats:
    """Amortized-pipeline extension: what this search reused vs. rebuilt.

    Populated by engines that consult the mask-plan cache
    (``batch:...,cache=yes`` and every dispatcher spec).
    ``plan_hits``/``plan_misses`` count cache lookups for this search's
    mask plans. What an engine's worker processes did is not a property
    of one search: read it off :class:`repro.fleet.workers.WorkerSet`.
    """

    plan_hits: int = 0
    plan_misses: int = 0
    #: Bytes of mask plans currently resident in the process-wide cache.
    plan_bytes: int = 0


@dataclass(frozen=True)
class SchedulingStats:
    """Scheduler extension: how the continuous batcher served this search.

    Populated by the ``sched:`` engine family (:mod:`repro.sched`). A
    search that rode the shared work stream records which lane it ran
    in, how long it queued before its first device batch, how many
    device batches carried its candidates (and how many of those were
    shared with other requests), and how often it was set aside so
    another request could use the device.
    """

    lane: str = ""
    #: Tenant the request was attributed to ("" for pre-tenancy engines;
    #: the scheduler stamps ``"default"`` for untenanted submissions).
    tenant: str = ""
    #: Client-supplied deadline, if any (relative seconds at submit).
    deadline_seconds: float | None = None
    #: Admission -> first device batch.
    queue_seconds: float = 0.0
    #: First device batch -> final state.
    service_seconds: float = 0.0
    #: Device batches that carried at least one of this search's chunks.
    batches: int = 0
    #: Of those, batches shared with other requests' candidates.
    shared_batches: int = 0
    #: Times the device was handed to another request while this one
    #: still had work pending.
    preemptions: int = 0
    #: Work units the decomposer produced / actually executed (early
    #: exit retires the difference).
    chunks_total: int = 0
    chunks_run: int = 0


@dataclass(frozen=True)
class FleetStats:
    """Multi-device extension: how the device fleet served this search.

    Populated by the ``fleet:`` engine family (:mod:`repro.fleet`). A
    search placed on a health-checked device fleet records which devices
    carried its batches, which device found the seed, and how often its
    chunks had to be re-dispatched (device failure), duplicated (hedged
    straggler batches), or moved to another device entirely.
    """

    #: Devices that served at least one batch for this request, sorted.
    devices: tuple[str, ...] = ()
    #: Device whose batch produced the matching seed (None if not found).
    finder_device: str | None = None
    #: ``(device, batches)`` pairs, sorted by device name.
    batches_by_device: tuple[tuple[str, int], ...] = ()
    #: Chunks returned to the queue after a device failed mid-flight
    #: (plus pending chunks moved when the request changed devices).
    redispatched_chunks: int = 0
    #: Batches of this request duplicated onto a second device because
    #: the first was past the straggler latency threshold.
    hedged_batches: int = 0
    #: Times this request's device affinity moved to another device.
    reassignments: int = 0


@dataclass(frozen=True)
class DirectoryStats:
    """Enrollment-directory extension: how this search's image was fetched.

    Populated when the CA's image database is a sharded enrollment
    directory (:mod:`repro.directory`). Records where the enrolled PUF
    image came from — the per-shard hot cache, the key's primary shard,
    or a replica after failover — and what the quorum read cost.
    """

    #: ``"hot-cache"``, ``"primary"``, or ``"replica"`` (failover read).
    source: str = ""
    #: Tenant namespace the looked-up key lived in ("" before tenancy).
    tenant: str = ""
    #: Shard that served the read ("" for a pure cache hit).
    shard: str = ""
    #: Replicas consulted by the quorum read (0 for a cache hit).
    replicas_read: int = 0
    #: Transient shard timeouts retried during the read.
    retries: int = 0
    #: Stale or missing replica copies repaired by this read.
    read_repairs: int = 0
    #: Whether the per-shard hot cache answered without a shard read.
    hot_hit: bool = False
    #: Wall time of the directory lookup itself.
    lookup_seconds: float = 0.0


@dataclass(frozen=True)
class ClusterStats:
    """Distributed-search extension: per-rank accounting and recovery."""

    finder_rank: int | None = None
    per_rank_seconds: tuple[float, ...] = ()
    per_rank_hashed: tuple[int, ...] = ()
    #: Ranks that died before the search and whose slices were recovered.
    dead_ranks: tuple[int, ...] = ()
    #: Ranks that ran at a slowdown factor (reflected in wall time).
    straggler_ranks: tuple[int, ...] = ()
    #: Wall time of the recovery pass alone (0.0 when no rank died or a
    #: survivor found the seed before recovery was needed).
    recovery_seconds: float = 0.0
    #: Actual serial execution time of the simulation (for reference).
    simulation_seconds: float = 0.0


@dataclass(frozen=True)
class SearchResult:
    """Outcome of one RBC search — the unified, instrumented shape.

    ``elapsed_seconds`` is always the answer-latency the protocol
    compares against T: real wall time for host engines, modeled
    concurrent wall time for the cluster engine, modeled device time for
    the device-model-backed engines.
    """

    found: bool
    seed: bytes | None
    distance: int | None
    seeds_hashed: int
    elapsed_seconds: float
    timed_out: bool = False
    #: Per-shell breakdown; every engine populates it.
    shells: tuple[ShellStats, ...] = ()
    #: Which engine produced this result (its ``describe()`` string).
    engine: str | None = None
    #: Distributed extension; ``None`` for single-node engines.
    cluster: ClusterStats | None = field(default=None)
    #: Amortized-pipeline extension (mask-plan cache telemetry);
    #: ``None`` for engines that pay full per-search costs.
    amortized: AmortizationStats | None = field(default=None)
    #: Scheduler extension (lane, queueing, batch sharing); ``None`` for
    #: searches that ran outside the continuous batcher.
    scheduling: SchedulingStats | None = field(default=None)
    #: Multi-device extension (per-device batches, re-dispatch, hedging);
    #: ``None`` for searches served by a single device.
    fleet: FleetStats | None = field(default=None)
    #: Enrollment-directory extension (hot-cache/quorum/failover lookup
    #: telemetry); ``None`` when the enrolled image came from a plain
    #: in-memory database.
    directory: DirectoryStats | None = field(default=None)

    def __bool__(self) -> bool:
        return self.found

    @property
    def throughput(self) -> float:
        """Seeds hashed per second over the whole search."""
        return (
            self.seeds_hashed / self.elapsed_seconds
            if self.elapsed_seconds > 0
            else 0.0
        )


@runtime_checkable
class SearchEngine(Protocol):
    """Anything that can run the Algorithm-1 search."""

    def search(
        self,
        base_seed: bytes,
        target_digest: bytes,
        max_distance: int,
        time_budget: float | None = None,
    ) -> SearchResult:
        """Run Algorithm 1 up to ``max_distance`` within ``time_budget``."""
        ...
