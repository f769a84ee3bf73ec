"""Noisy-neighbor tenant storms for the ``repro tenants`` gate.

The tenancy claim is an *isolation* story: an in-quota tenant's tail
latency should survive a neighbor slamming the same CA at many times its
admission budget, because the neighbor's excess is refused at the front
door with a typed ``tenant_quota`` shed instead of queueing ahead of
everyone else. The apparatus that shows it — a deterministic two-tenant
fleet, a victim-alone baseline, a storm with quotas enforced, and a
counterfactual storm with the quota removed — lives here; the gate
definition (arguments, render, record) is in :mod:`repro.gates`.

Three phases, same planted requests throughout:

* **baseline** — the victim tenant alone: its no-contention tail.
* **storm** — the aggressor fleet (sized at ~10x the aggressor's token
  bucket) interleaved with the victim; quotas enforced.
* **unprotected** — the identical storm with the aggressor's quota
  removed: the damage the token bucket exists to prevent.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro._bitutils import SEED_BITS, flip_bits
from repro.analysis.metrics import percentile
from repro.core.authentication import (
    CertificateAuthority,
    RegistrationAuthority,
)
from repro.core.salting import HashChainSalt
from repro.core.search import RBCSearchService
from repro.gates import invariant_failures
from repro.hashes.registry import get_hash
from repro.keygen.interface import get_keygen
from repro.directory.sharded import ShardedEnrollmentDirectory
from repro.net.concurrent import ConcurrentCAServer
from repro.puf.model import SRAMPuf
from repro.puf.ternary import enroll_with_masking
from repro.runtime.executor import BatchSearchExecutor
from repro.sched.errors import SHED_TENANT_QUOTA, RequestShed
from repro.tenancy.context import TenantContext, TenantQuota
from repro.tenancy.registry import TenantRegistry

__all__ = [
    "VICTIM_TENANT",
    "AGGRESSOR_TENANT",
    "TenantRequest",
    "TenantOutcome",
    "build_tenant_authority",
    "plant_requests",
    "run_requests",
    "summarize_outcomes",
    "run_noisy_neighbor",
    "isolation_failures",
]

#: The in-quota tenant whose tail latency the storm must not ruin.
VICTIM_TENANT = "victim"
#: The neighbor that submits far past its admission budget.
AGGRESSOR_TENANT = "aggressor"

#: Where each tenant's answers are planted. Victim requests are the
#: interactive (shallow) class the isolation claim is about; aggressor
#: requests are deliberately *cheap* so any victim damage in the
#: unprotected phase is volume-driven — exactly what a token bucket
#: can and should absorb.
VICTIM_DISTANCE = 2
AGGRESSOR_DISTANCE = 1


@dataclass(frozen=True)
class TenantRequest:
    """One tenant-tagged authentication request in the storm."""

    tenant_id: str
    client_id: str
    digest: bytes
    planted_distance: int
    deadline_seconds: float | None = None


@dataclass(frozen=True)
class TenantOutcome:
    """What the front door and the search did with one request."""

    tenant_id: str
    client_id: str
    latency_seconds: float
    authenticated: bool
    shed: bool
    shed_reason: str = ""


def build_tenant_authority(
    victims: int,
    aggressors: int,
    hash_name: str = "sha1",
    max_distance: int = 2,
    batch_size: int = 8192,
    time_budget: float = 5.0,
    seed: int = 0,
) -> CertificateAuthority:
    """A CA with ``victims`` + ``aggressors`` clients enrolled per tenant.

    Enrollment records are installed under their tenant's namespace in a
    sharded directory, so the storm exercises the same namespaced-key
    path production traffic uses — and the directory's hot cache keeps
    the per-request image decrypt off the serving path once
    :func:`plant_requests` has touched every record. Deterministic in
    ``seed``.
    """
    if victims < 1 or aggressors < 1:
        raise ValueError("victims and aggressors must be positive")
    authority = CertificateAuthority(
        search_service=RBCSearchService(
            BatchSearchExecutor(hash_name, batch_size=batch_size),
            max_distance=max_distance,
            time_threshold=time_budget,
        ),
        salt=HashChainSalt(),
        keygen=get_keygen("aes-128"),
        registration_authority=RegistrationAuthority(),
        image_db=ShardedEnrollmentDirectory(
            b"tenancy-storm-mk", shards=4, replication=2
        ),
        hash_name=hash_name,
    )
    fleets = (
        (VICTIM_TENANT, victims),
        (AGGRESSOR_TENANT, aggressors),
    )
    index = 0
    for tenant_id, count in fleets:
        for i in range(count):
            puf = SRAMPuf(
                num_cells=2048, stable_error=0.001, seed=seed * 7919 + index
            )
            mask = enroll_with_masking(
                puf, 0, 2048, reads=8, instability_threshold=0.05
            )
            authority.enroll(f"{tenant_id}-{i:04d}", mask, tenant_id=tenant_id)
            index += 1
    return authority


def plant_requests(
    authority: CertificateAuthority,
    tenant_id: str,
    count: int,
    distance: int,
    seed: int = 0,
) -> list[TenantRequest]:
    """Requests whose answers lie ``distance`` bit flips from S_init."""
    algo = get_hash(authority.hash_name)
    rng = np.random.default_rng(seed)
    requests = []
    for i in range(count):
        client_id = f"{tenant_id}-{i:04d}"
        base_seed = authority.enrolled_seed(client_id, tenant_id=tenant_id)
        flips = rng.choice(SEED_BITS, size=distance, replace=False)
        digest = algo.hash_seed(flip_bits(base_seed, [int(b) for b in flips]))
        requests.append(
            TenantRequest(
                tenant_id=tenant_id,
                client_id=client_id,
                digest=digest,
                planted_distance=distance,
            )
        )
    return requests


def run_requests(
    server: ConcurrentCAServer,
    requests: list[TenantRequest],
    timeout: float = 120.0,
) -> list[TenantOutcome]:
    """Submit the fleet back-to-back; per-request submit-to-settle latency.

    Completion instants are stamped by each future's done-callback (on
    the worker that settles it), so collection order cannot inflate a
    fast request's measured latency.
    """
    settled: dict[int, float] = {}

    def stamp(index: int):
        def callback(_future) -> None:
            settled[index] = time.perf_counter()

        return callback

    admitted: list[tuple[int, TenantRequest, float, object]] = []
    outcomes: list[TenantOutcome] = []
    for index, request in enumerate(requests):
        started = time.perf_counter()
        try:
            future = server.submit(
                request.client_id,
                request.digest,
                deadline_seconds=request.deadline_seconds,
                tenant_id=request.tenant_id,
            )
        except RequestShed as exc:
            outcomes.append(
                TenantOutcome(
                    tenant_id=request.tenant_id,
                    client_id=request.client_id,
                    latency_seconds=time.perf_counter() - started,
                    authenticated=False,
                    shed=True,
                    shed_reason=exc.reason,
                )
            )
            continue
        future.add_done_callback(stamp(index))
        admitted.append((index, request, started, future))
    for index, request, started, future in admitted:
        try:
            result = future.result(timeout=timeout)
        except RequestShed as exc:
            outcomes.append(
                TenantOutcome(
                    tenant_id=request.tenant_id,
                    client_id=request.client_id,
                    latency_seconds=settled.get(index, started) - started,
                    authenticated=False,
                    shed=True,
                    shed_reason=exc.reason,
                )
            )
            continue
        outcomes.append(
            TenantOutcome(
                tenant_id=request.tenant_id,
                client_id=request.client_id,
                latency_seconds=settled[index] - started,
                authenticated=result.authenticated,
                shed=False,
            )
        )
    return outcomes


def summarize_outcomes(outcomes: list[TenantOutcome]) -> dict:
    """Per-tenant served-latency percentiles, outcome counts, shed reasons."""
    summary: dict[str, dict] = {}
    for tenant_id in sorted({o.tenant_id for o in outcomes}):
        group = [o for o in outcomes if o.tenant_id == tenant_id]
        served = [o for o in group if not o.shed]
        reasons: dict[str, int] = {}
        for outcome in group:
            if outcome.shed:
                reasons[outcome.shed_reason] = (
                    reasons.get(outcome.shed_reason, 0) + 1
                )
        stats = {
            "count": len(group),
            "served": len(served),
            "authenticated": sum(1 for o in served if o.authenticated),
            "shed": len(group) - len(served),
            "shed_reasons": reasons,
        }
        if served:
            latencies = [o.latency_seconds for o in served]
            stats.update(
                p50_seconds=round(percentile(latencies, 50), 6),
                p95_seconds=round(percentile(latencies, 95), 6),
                p99_seconds=round(percentile(latencies, 99), 6),
                max_seconds=round(max(latencies), 6),
            )
        summary[tenant_id] = stats
    return summary


def _interleave(
    victims: list[TenantRequest], aggressors: list[TenantRequest]
) -> list[TenantRequest]:
    """Aggressor-heavy round-robin: every victim arrives mid-storm."""
    per_victim = max(1, len(aggressors) // len(victims))
    storm: list[TenantRequest] = []
    cursor = 0
    for victim in victims:
        storm.extend(aggressors[cursor : cursor + per_victim])
        cursor += per_victim
        storm.append(victim)
    storm.extend(aggressors[cursor:])
    return storm


def run_noisy_neighbor(
    hash_name: str = "sha1",
    victims: int = 8,
    aggressors: int = 20,
    aggressor_rate: float = 1.0,
    aggressor_burst: float = 1.0,
    workers: int = 2,
    batch_size: int = 8192,
    time_budget: float = 5.0,
    seed: int = 0,
) -> dict:
    """Run all three phases against one enrolled CA; return the record.

    The aggressor fleet arrives in one burst, so ``aggressors`` versus
    ``aggressor_burst`` sets the overload factor — the defaults submit
    20 requests against a one-token bucket, 20x the budget. The victim
    tenant carries no quota (in-quota by construction) and a higher
    fair-share weight, the aggressor a token bucket of
    ``aggressor_rate``/s with ``aggressor_burst`` tokens of headroom.
    """
    authority = build_tenant_authority(
        victims,
        aggressors,
        hash_name=hash_name,
        max_distance=VICTIM_DISTANCE,
        batch_size=batch_size,
        time_budget=time_budget,
        seed=seed,
    )
    victim_requests = plant_requests(
        authority, VICTIM_TENANT, victims, VICTIM_DISTANCE, seed=seed + 1
    )
    aggressor_requests = plant_requests(
        authority, AGGRESSOR_TENANT, aggressors, AGGRESSOR_DISTANCE,
        seed=seed + 2,
    )
    storm_order = _interleave(victim_requests, aggressor_requests)

    def quota_registry() -> TenantRegistry:
        # Fresh per phase: token buckets start full each time.
        return TenantRegistry(
            tenants=(
                TenantContext(VICTIM_TENANT, weight=4.0),
                TenantContext(
                    AGGRESSOR_TENANT,
                    weight=1.0,
                    quota=TenantQuota(
                        lookup_rate=aggressor_rate, burst=aggressor_burst
                    ),
                ),
            )
        )

    def open_registry() -> TenantRegistry:
        return TenantRegistry(
            tenants=(
                TenantContext(VICTIM_TENANT, weight=4.0),
                TenantContext(AGGRESSOR_TENANT, weight=1.0),
            )
        )

    phases: dict[str, dict] = {}
    storm_metrics: dict = {}
    storm_tenants: dict = {}
    for name, registry, fleet in (
        ("baseline", quota_registry(), victim_requests),
        ("storm", quota_registry(), storm_order),
        ("unprotected", open_registry(), storm_order),
    ):
        with ConcurrentCAServer(
            authority, workers=workers, max_queue=256, tenants=registry
        ) as server:
            outcomes = run_requests(server, fleet)
        phases[name] = summarize_outcomes(outcomes)
        if name == "storm":
            storm_metrics = server.metrics.snapshot()
            storm_tenants = server.metrics.tenant_snapshot()

    baseline = phases["baseline"][VICTIM_TENANT]
    storm_victim = phases["storm"][VICTIM_TENANT]
    storm_aggressor = phases["storm"][AGGRESSOR_TENANT]
    unprotected_victim = phases["unprotected"][VICTIM_TENANT]
    baseline_p99 = baseline.get("p99_seconds", 0.0)
    storm_p99 = storm_victim.get("p99_seconds", 0.0)
    return {
        "baseline": phases["baseline"],
        "storm": phases["storm"],
        "unprotected": phases["unprotected"],
        "victim_p99_baseline_seconds": baseline_p99,
        "victim_p99_storm_seconds": storm_p99,
        "victim_p99_unprotected_seconds": unprotected_victim.get(
            "p99_seconds", 0.0
        ),
        "victim_p99_ratio": (
            round(storm_p99 / baseline_p99, 4) if baseline_p99 > 0 else None
        ),
        "aggressor_admitted": storm_aggressor["served"],
        "aggressor_shed": storm_aggressor["shed"],
        "aggressor_shed_reasons": storm_aggressor["shed_reasons"],
        "server": {
            "storm_metrics": storm_metrics,
            "storm_tenants": storm_tenants,
        },
    }


def isolation_failures(
    record: dict,
    ratio_limit: float = 1.25,
    absolute_slack_seconds: float = 0.05,
) -> list[str]:
    """The isolation invariants the storm broke, by name; empty is PASS.

    The victim-tail gate allows ``absolute_slack_seconds`` on top of the
    ratio: phase p99s here are a few device batches, so a single
    scheduling hiccup on a busy CI host is a large *relative* error while
    the isolation claim is about orders of magnitude.
    """
    # Every aggressor rejection must be the typed quota refusal.
    failures = invariant_failures(
        untyped=[
            reason
            for reason, count in record["aggressor_shed_reasons"].items()
            if reason != SHED_TENANT_QUOTA
            for _ in range(count)
        ]
    )
    storm_victim = record["storm"][VICTIM_TENANT]
    if storm_victim["shed"] != 0:
        failures.append(
            f"victim was shed {storm_victim['shed']}x during the storm"
        )
    if storm_victim["authenticated"] != storm_victim["count"]:
        failures.append(
            "victim authentications failed under storm: "
            f"{storm_victim['authenticated']}/{storm_victim['count']}"
        )
    if record["aggressor_shed"] == 0:
        failures.append("aggressor was never shed — storm did not overload")
    baseline_p99 = record["victim_p99_baseline_seconds"]
    storm_p99 = record["victim_p99_storm_seconds"]
    allowed = max(
        baseline_p99 * ratio_limit, baseline_p99 + absolute_slack_seconds
    )
    if storm_p99 > allowed:
        failures.append(
            f"victim p99 degraded {storm_p99:.3f}s vs baseline "
            f"{baseline_p99:.3f}s (allowed {allowed:.3f}s)"
        )
    return failures
