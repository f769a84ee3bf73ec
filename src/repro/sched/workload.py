"""Mixed-depth serving workloads for the scheduler CLI and benchmark.

The scheduler's value proposition is a *tail-latency* story: when
shallow (d <= 2) authentications share a device with deep stragglers,
FIFO makes the shallow requests wait out every deep search queued ahead
of them, while the continuous batcher serves all of them from the same
device batches. The ``repro sched`` gate (:mod:`repro.gates`) shows that
with the apparatus here: a deterministic mixed-depth request fleet, a
FIFO reference run, a scheduled run, and per-depth latency summaries.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro._bitutils import SEED_BITS, flip_bits
from repro.analysis.metrics import percentile
from repro.engines.result import SearchEngine
from repro.sched.errors import RequestShed

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.fleet.engine import FleetSearchEngine

__all__ = [
    "WorkloadRequest",
    "RequestOutcome",
    "mixed_workload",
    "run_fifo",
    "run_scheduled",
    "summarize_latencies",
]

#: "Shallow" for reporting purposes: the interactive request depths the
#: paper's threshold comfortably covers on a single device.
SHALLOW_DISTANCE = 2


@dataclass(frozen=True)
class WorkloadRequest:
    """One client's authentication request in a synthetic storm."""

    client_id: str
    base_seed: bytes
    target_digest: bytes
    #: Where the answer actually lies (bits flipped from the base seed).
    planted_distance: int
    #: How deep this request's search is allowed to go.
    max_distance: int
    deadline_seconds: float | None = None


@dataclass(frozen=True)
class RequestOutcome:
    """What happened to one request, on either serving path."""

    client_id: str
    planted_distance: int
    max_distance: int
    latency_seconds: float
    found: bool
    timed_out: bool
    shed: bool
    shed_reason: str = ""


def mixed_workload(
    algo,
    requests: int = 16,
    depths: tuple[int, ...] = (1, 2, 3, 4),
    seed: int = 0,
    deadline_seconds: float | None = None,
) -> list[WorkloadRequest]:
    """A deterministic mixed-depth request fleet.

    Depths cycle round-robin so every run carries the same shallow/deep
    mix; each client's seed is planted at a distinct random location in
    its shell. ``deadline_seconds``, when given, is attached to the
    shallow (d <= 2) requests only — the interactive clients are the
    ones with latency expectations.
    """
    if requests < 1:
        raise ValueError("requests must be positive")
    if not depths or any(d < 0 for d in depths):
        raise ValueError("depths must be non-negative")
    rng = np.random.default_rng(seed)
    fleet = []
    for index in range(requests):
        distance = depths[index % len(depths)]
        base_seed = rng.bytes(SEED_BITS // 8)
        flips = rng.choice(SEED_BITS, size=distance, replace=False)
        client_seed = flip_bits(base_seed, [int(b) for b in flips])
        fleet.append(
            WorkloadRequest(
                client_id=f"wl-{index:04d}",
                base_seed=base_seed,
                target_digest=algo.hash_seed(client_seed),
                planted_distance=distance,
                max_distance=distance,
                deadline_seconds=(
                    deadline_seconds
                    if distance <= SHALLOW_DISTANCE
                    else None
                ),
            )
        )
    return fleet


def run_fifo(
    engine: SearchEngine,
    workload: list[WorkloadRequest],
    time_budget: float,
) -> list[RequestOutcome]:
    """Serve the fleet in submission order on one device (the baseline).

    All requests arrive at t=0; each one's latency includes the time it
    spent queued behind everything submitted before it — exactly what a
    FIFO worker over a single device does to a shallow request stuck
    behind a deep straggler.
    """
    start = time.perf_counter()
    outcomes = []
    for request in workload:
        result = engine.search(
            request.base_seed,
            request.target_digest,
            request.max_distance,
            time_budget=time_budget,
        )
        outcomes.append(
            RequestOutcome(
                client_id=request.client_id,
                planted_distance=request.planted_distance,
                max_distance=request.max_distance,
                latency_seconds=time.perf_counter() - start,
                found=result.found,
                timed_out=result.timed_out,
                shed=False,
            )
        )
    return outcomes


def run_scheduled(
    engine: FleetSearchEngine,
    workload: list[WorkloadRequest],
    time_budget: float,
) -> list[RequestOutcome]:
    """Serve the same fleet through the continuous-batching scheduler."""
    start = time.perf_counter()
    tickets = []
    for request in workload:
        try:
            ticket = engine.submit(
                request.base_seed,
                request.target_digest,
                request.max_distance,
                time_budget=time_budget,
                deadline_seconds=request.deadline_seconds,
                client_id=request.client_id,
            )
        except RequestShed as exc:
            tickets.append((request, None, exc))
            continue
        tickets.append((request, ticket, None))
    outcomes = []
    for request, ticket, admission_error in tickets:
        if ticket is None:
            outcomes.append(
                RequestOutcome(
                    client_id=request.client_id,
                    planted_distance=request.planted_distance,
                    max_distance=request.max_distance,
                    latency_seconds=time.perf_counter() - start,
                    found=False,
                    timed_out=False,
                    shed=True,
                    shed_reason=admission_error.reason,
                )
            )
            continue
        try:
            result = ticket.result()
        except RequestShed as exc:
            outcomes.append(
                RequestOutcome(
                    client_id=request.client_id,
                    planted_distance=request.planted_distance,
                    max_distance=request.max_distance,
                    latency_seconds=time.perf_counter() - start,
                    found=False,
                    timed_out=False,
                    shed=True,
                    shed_reason=exc.reason,
                )
            )
            continue
        scheduling = result.scheduling
        finished = time.perf_counter() - start
        if scheduling is not None:
            # The ticket settled on the dispatcher thread; use its own
            # clock (queue + service) rather than when we happened to
            # collect it.
            finished = min(
                finished, scheduling.queue_seconds + scheduling.service_seconds
            )
        outcomes.append(
            RequestOutcome(
                client_id=request.client_id,
                planted_distance=request.planted_distance,
                max_distance=request.max_distance,
                latency_seconds=finished,
                found=result.found,
                timed_out=result.timed_out,
                shed=False,
            )
        )
    return outcomes


def summarize_latencies(outcomes: list[RequestOutcome]) -> dict:
    """Per-class latency percentiles plus outcome counts."""

    def stats(group: list[RequestOutcome]) -> dict:
        if not group:
            return {"count": 0}
        latencies = [o.latency_seconds for o in group]
        return {
            "count": len(group),
            "found": sum(1 for o in group if o.found),
            "timed_out": sum(1 for o in group if o.timed_out),
            "shed": sum(1 for o in group if o.shed),
            "p50_seconds": round(percentile(latencies, 50), 6),
            "p95_seconds": round(percentile(latencies, 95), 6),
            "p99_seconds": round(percentile(latencies, 99), 6),
            "max_seconds": round(max(latencies), 6),
        }

    shallow = [o for o in outcomes if o.max_distance <= SHALLOW_DISTANCE]
    deep = [o for o in outcomes if o.max_distance > SHALLOW_DISTANCE]
    return {
        "all": stats(outcomes),
        "shallow": stats(shallow),
        "deep": stats(deep),
    }
