"""Speedup/efficiency metrics, paper-vs-measured comparisons, the
resilience report produced by chaos runs, and aggregation over the
unified :class:`~repro.engines.result.SearchResult`."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

__all__ = [
    "speedup",
    "parallel_efficiency",
    "PaperComparison",
    "compare_to_paper",
    "percentile",
    "ResilienceReport",
    "summarize_search_results",
]


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile of a sequence (q in [0, 100]).

    Deterministic and dependency-light — the chaos report must be
    byte-identical across runs, so no float-order surprises allowed.
    """
    if not 0.0 <= q <= 100.0:
        raise ValueError("q must be in [0, 100]")
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sequence")
    if len(ordered) == 1:
        return float(ordered[0])
    rank = q / 100.0 * (len(ordered) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    fraction = rank - lo
    return float(ordered[lo] * (1.0 - fraction) + ordered[hi] * fraction)


def summarize_search_results(results: Iterable) -> dict:
    """Aggregate a batch of unified search results into one summary.

    Accepts any iterable of :class:`~repro.engines.result.SearchResult`
    (from any engine — every registered engine returns the same type)
    and reports fleet-level statistics: totals, outcome counts, the
    distance histogram of successful finds, and the per-distance seed
    counts accumulated from each result's shell telemetry.
    """
    searches = 0
    found = 0
    timed_out = 0
    seeds_hashed = 0
    wall_seconds = 0.0
    found_distances: dict[int, int] = {}
    seeds_by_distance: dict[int, int] = {}
    engines: dict[str, int] = {}
    for result in results:
        searches += 1
        seeds_hashed += result.seeds_hashed
        wall_seconds += result.elapsed_seconds
        if result.found:
            found += 1
            found_distances[result.distance] = (
                found_distances.get(result.distance, 0) + 1
            )
        if result.timed_out:
            timed_out += 1
        for shell in result.shells:
            seeds_by_distance[shell.distance] = (
                seeds_by_distance.get(shell.distance, 0) + shell.seeds_hashed
            )
        label = result.engine if result.engine is not None else "(untagged)"
        engines[label] = engines.get(label, 0) + 1
    return {
        "searches": searches,
        "found": found,
        "timed_out": timed_out,
        "seeds_hashed": seeds_hashed,
        "wall_seconds": wall_seconds,
        "throughput": seeds_hashed / wall_seconds if wall_seconds > 0 else 0.0,
        "found_distances": dict(sorted(found_distances.items())),
        "seeds_by_distance": dict(sorted(seeds_by_distance.items())),
        "engines": dict(sorted(engines.items())),
    }


def speedup(baseline_seconds: float, parallel_seconds: float) -> float:
    """Classic speedup S = T_base / T_parallel."""
    if parallel_seconds <= 0:
        raise ValueError("parallel time must be positive")
    return baseline_seconds / parallel_seconds


def parallel_efficiency(
    baseline_seconds: float, parallel_seconds: float, workers: int
) -> float:
    """Efficiency E = S / p."""
    if workers < 1:
        raise ValueError("workers must be positive")
    return speedup(baseline_seconds, parallel_seconds) / workers


@dataclass(frozen=True)
class PaperComparison:
    """One paper-vs-reproduction data point for EXPERIMENTS.md."""

    experiment: str
    quantity: str
    paper_value: float
    measured_value: float

    @property
    def ratio(self) -> float:
        """measured / paper value."""
        return self.measured_value / self.paper_value

    @property
    def deviation_percent(self) -> float:
        """Percent deviation from the paper value."""
        return (self.ratio - 1.0) * 100.0

    def row(self) -> list[str]:
        """The comparison as a formatted table row."""
        return [
            self.experiment,
            self.quantity,
            f"{self.paper_value:g}",
            f"{self.measured_value:g}",
            f"{self.deviation_percent:+.1f}%",
        ]


def compare_to_paper(
    experiment: str, quantity: str, paper_value: float, measured_value: float
) -> PaperComparison:
    """Record one comparison (convenience constructor)."""
    return PaperComparison(experiment, quantity, paper_value, measured_value)


@dataclass(frozen=True)
class ResilienceReport:
    """What an authentication storm under a fault plan produced.

    Every compared field is derived from the links' virtual clocks, the
    seeded outage schedule and per-request counters — no wall-clock
    measurements — so two runs with the same fault-plan seed compare
    equal (`==`), which is the reproducibility contract the chaos
    regression tests assert. The last two fields are what the
    dispatcher's real threads happened to see, and are not compared.
    """

    plan: str
    seed: int
    clients: int
    succeeded: int
    failed_clean: int
    false_authentications: int
    #: (outcome_name, count), sorted by name. Outcome names are the
    #: typed terminal states: authenticated, rejected, deadline_exceeded,
    #: retries_exhausted, server_busy.
    outcomes: tuple[tuple[str, int], ...]
    #: (fault_kind, count) actually injected on the links, sorted.
    faults_injected: tuple[tuple[str, int], ...]
    attempts_total: int
    max_attempts_single_client: int
    latency_p50: float
    latency_p95: float
    latency_max: float
    #: Outages of the fleet's last device the storm played, and how many
    #: the dispatcher's health monitor quarantined and reinstated — all
    #: three equal when every outage was handled.
    device_episodes: int
    quarantines: int
    reinstatements: int
    #: What the front door counted on the requests it settled: candidate
    #: seeds hashed and Hamming shells completed by their searches. Pure
    #: counters — deterministic, unlike shell wall times.
    engine_seeds_hashed: int = 0
    engine_shells_completed: int = 0
    #: Batches that failed on the killed device and chunks replayed on
    #: the survivor: 0 while the monitor sees every outage edge before
    #: the next client (in-flight re-dispatch is ``fleet --storm``'s).
    victim_batch_failures: int = field(default=0, compare=False)
    redispatched_chunks: int = field(default=0, compare=False)

    @property
    def availability(self) -> float:
        """Fraction of clients that authenticated successfully."""
        return self.succeeded / self.clients if self.clients else 0.0

    def render(self) -> str:
        """Human-readable report for the `repro chaos` subcommand."""
        from repro.analysis.tables import format_table

        lines = [
            f"chaos storm: plan={self.plan!r} seed={self.seed} "
            f"clients={self.clients}",
            "",
            format_table(
                ["outcome", "count"],
                [[name, count] for name, count in self.outcomes],
                title="client outcomes",
            ),
            "",
            format_table(
                ["fault", "count"],
                [[name, count] for name, count in self.faults_injected]
                or [["(none)", 0]],
                title="injected link faults",
            ),
            "",
            f"availability:        {self.availability:.1%}",
            f"false auths:         {self.false_authentications}",
            f"attempts:            {self.attempts_total} total, "
            f"worst client {self.max_attempts_single_client}",
            f"virtual latency:     p50={self.latency_p50:.2f}s "
            f"p95={self.latency_p95:.2f}s max={self.latency_max:.2f}s",
            f"device episodes:     {self.device_episodes} played, "
            f"{self.quarantines} quarantined, "
            f"{self.reinstatements} reinstated",
            f"engine telemetry:    {self.engine_seeds_hashed} seeds hashed "
            f"across {self.engine_shells_completed} shells",
        ]
        return "\n".join(lines)
