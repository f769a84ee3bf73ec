"""Tenancy benchmark — noisy-neighbor isolation under per-tenant quotas.

The serving claim behind :mod:`repro.tenancy`: an in-quota tenant's tail
latency survives a neighbor slamming the same CA far past its admission
budget, because the neighbor's excess is refused at the front door with
a typed ``tenant_quota`` shed instead of queueing ahead of everyone
else. Three phases over the same planted two-tenant fleet
(:func:`repro.tenancy.workload.run_noisy_neighbor`; the fleet, the
requests and the submit→settle loop are the storm kit's,
:mod:`repro.storm`):

* **baseline** — the victim tenant alone;
* **storm** — the aggressor fleet arrives in one burst at ~20x its token
  bucket, quotas enforced;
* **unprotected** — the identical storm with the quota removed (the
  damage the bucket exists to prevent; report-only, not gated).

Gates (:func:`repro.tenancy.workload.isolation_failures`): the victim is
never shed and keeps authenticating, every aggressor rejection is typed
``tenant_quota``, and the victim's p99 stays within 25% of its baseline
(plus a small absolute allowance for CI clock noise). The gate itself is
``repro tenants`` (:mod:`repro.gates`); this file is its pytest entry::

    PYTHONPATH=src python -m repro tenants --output BENCH_tenancy.json
"""

from repro.gates import GATES, measure
from repro.tenancy.workload import AGGRESSOR_TENANT

GATE = GATES["tenancy"]


def test_quotas_isolate_the_victim_tenant(report):
    """Pytest entry: the acceptance claims of the bench.

    Runs at acceptance scale — the victim fleet must be large enough
    that the one admitted aggressor search is small relative to the
    victim's own baseline tail, or clock noise dominates the ratio.
    """
    record = measure(GATE, ["--victims", "10", "--aggressors", "12"])
    report("tenancy", GATE.render(record))
    assert record["pass"], record["gates"]
    # The quota refused real work: the unprotected phase served the whole
    # aggressor fleet, the protected storm only the bucket's worth.
    metrics = record["metrics"]
    assert metrics["aggressor_admitted"] < record["config"]["aggressors"]
    assert metrics["unprotected"][AGGRESSOR_TENANT]["shed"] == 0
