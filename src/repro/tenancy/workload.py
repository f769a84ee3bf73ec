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

from repro.core.search import RBCSearchService
from repro.directory.sharded import ShardedEnrollmentDirectory
from repro.engines.registry import build_engine
from repro.hashes.registry import get_hash
from repro.net.concurrent import ConcurrentCAServer
from repro.refusals import Refusal
from repro.storm import (
    Request,
    drive,
    enrolled_fleet,
    invariant_failures,
    planted,
    server_submit,
    summarize,
)
from repro.tenancy.context import TenantContext, TenantQuota
from repro.tenancy.registry import TenantRegistry

__all__ = [
    "VICTIM_TENANT",
    "AGGRESSOR_TENANT",
    "tenant_storm",
    "tenant_registry",
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


def tenant_storm(
    victims: int,
    aggressors: int,
    search_service,
    hash_name: str = "sha1",
    seed: int = 0,
):
    """The enrolled two-tenant CA, the victim fleet's planted requests, and
    the storm: every victim arriving amid the aggressor's burst.

    Records live under their tenant's namespace in a sharded directory,
    so the storm exercises the namespaced-key path production traffic
    uses — and planting the requests touches every record, which keeps
    the per-request image decrypt off the serving path. Deterministic in
    ``seed``.
    """
    if victims < 1 or aggressors < 1:
        raise ValueError("victims and aggressors must be positive")

    def slot(index: int) -> tuple[str, int]:
        if index < victims:
            return VICTIM_TENANT, index
        return AGGRESSOR_TENANT, index - victims

    authority, _fleet = enrolled_fleet(
        seed,
        victims + aggressors,
        ShardedEnrollmentDirectory(b"tenancy-storm-mk", shards=4, replication=2),
        search_service,
        hash_name=hash_name,
        tenant_of=lambda index: slot(index)[0],
        reads=8,
        instability_threshold=0.05,
        identity=lambda index: "{}-{:04d}".format(*slot(index)),
    )
    algo = get_hash(hash_name)
    victim_requests = planted(
        algo, victims, (VICTIM_DISTANCE,), seed + 1,
        authority=authority, tenant=VICTIM_TENANT,
    )
    aggressor_requests = planted(
        algo, aggressors, (AGGRESSOR_DISTANCE,), seed + 2,
        authority=authority, tenant=AGGRESSOR_TENANT,
    )
    # Aggressor-heavy round-robin.
    per_victim = max(1, aggressors // victims)
    storm: list[Request] = []
    for index, victim in enumerate(victim_requests):
        storm += aggressor_requests[index * per_victim : (index + 1) * per_victim]
        storm.append(victim)
    storm += aggressor_requests[victims * per_victim :]
    return authority, victim_requests, storm


def tenant_registry(aggressor_quota: TenantQuota) -> TenantRegistry:
    """A fresh registry (token buckets start full): the victim in-quota by
    construction with the higher fair-share weight, the aggressor under
    ``aggressor_quota`` — ``TenantQuota()`` removes the protection."""
    return TenantRegistry(
        tenants=(
            TenantContext(VICTIM_TENANT, weight=4.0),
            TenantContext(AGGRESSOR_TENANT, weight=1.0, quota=aggressor_quota),
        )
    )


def _by_tenant(outcomes: list) -> dict[str, dict]:
    """Per-tenant outcome counts and submit-to-settle latency percentiles."""
    summary = {}
    for tenant in sorted({o.request.tenant for o in outcomes}):
        stats = summarize(
            [o for o in outcomes if o.request.tenant == tenant], since_submit=True
        )
        stats["authenticated"] = stats.pop("found")
        summary[tenant] = stats
    return summary


def run_noisy_neighbor(
    hash_name: str = "sha1",
    victims: int = 8,
    aggressors: int = 20,
    aggressor_rate: float = 1.0,
    aggressor_burst: float = 1.0,
    batch_size: int = 8192,
    time_budget: float = 5.0,
    seed: int = 0,
) -> dict:
    """Run all three phases against one enrolled CA; return the record.

    The aggressor fleet arrives in one burst, so ``aggressors`` versus
    ``aggressor_burst`` sets the overload factor — the defaults submit
    20 requests against a one-token bucket, 20x the budget. The victim
    tenant carries no quota, the aggressor a token bucket of
    ``aggressor_rate``/s with ``aggressor_burst`` tokens of headroom.
    """
    authority, victim_requests, storm_order = tenant_storm(
        victims, aggressors, None, hash_name=hash_name, seed=seed
    )
    quota = TenantQuota(lookup_rate=aggressor_rate, burst=aggressor_burst)

    phases: dict[str, dict] = {}
    storm_metrics: dict = {}
    storm_tenants: dict = {}
    for name, registry, fleet in (
        ("baseline", tenant_registry(quota), victim_requests),
        ("storm", tenant_registry(quota), storm_order),
        ("unprotected", tenant_registry(TenantQuota()), storm_order),
    ):
        # One dispatcher per server: each phase's engine takes that
        # phase's registry into its admission policy and is closed with
        # the server.
        authority.search_service = RBCSearchService(
            build_engine("sched", hash_name=hash_name, batch_size=batch_size),
            max_distance=VICTIM_DISTANCE,
            time_threshold=time_budget,
        )
        with ConcurrentCAServer(
            authority, max_queue=256, tenants=registry
        ) as server:
            outcomes = drive(server_submit(server), fleet, timeout=120.0)
        phases[name] = _by_tenant(outcomes)
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
    served = [
        stats
        for phase in ("baseline", "storm", "unprotected")
        for stats in record[phase].values()
    ]
    # Every aggressor rejection must be the typed quota refusal.
    failures = invariant_failures(
        untyped=[
            reason
            for reason, count in record["aggressor_shed_reasons"].items()
            if reason != Refusal.TENANT_QUOTA.reason
            for _ in range(count)
        ]
        + [kind for stats in served for kind in stats["errors"]],
        lost=sum(stats["lost"] for stats in served),
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
