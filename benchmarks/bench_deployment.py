"""Deployment benchmark — end-to-end latency over real processes.

Everything else in ``benchmarks/`` measures the serving stack inside one
process. This bench deploys it: real ``repro.deploy.server`` and
``repro.deploy.loadgen`` OS processes over real TCP, one run per WAN
profile (``lan``, ``wan``, ``lossy-wan``), each driving the same
deterministic heavy-tailed/diurnal trace. Reported per profile:
end-to-end p50/p99 (client-observed wall clock, including WAN emulation
and retries), completed-request throughput, and the server-side
shed/redispatch/failover counters scraped over the admin metrics frame.

Gates (exit 1 on any):

* zero false authentications on every profile;
* zero untyped client-observed failures;
* every server drains and exits 0 under SIGTERM;
* the ``lan`` profile authenticates 100% of requests.

The gate itself is ``repro deploy --storm`` (:mod:`repro.gates`); this
file is its reduced-scale pytest entry::

    PYTHONPATH=src python -m repro deploy --storm --output BENCH_deployment.json
"""

from repro.gates import GATES, measure

GATE = GATES["deployment"]


def test_deployment_lan_storm(report, tmp_path, monkeypatch):
    """Reduced-scale pytest entry: lan-only, real processes end to end."""
    monkeypatch.chdir(tmp_path)  # the storm's scratch files land in cwd
    record = measure(
        GATE,
        ["--profiles", "lan", "--requests", "6", "--duration", "1.5",
         "--clients", "4", "--loadgens", "1", "--budget", "3.0"],
    )
    report("deployment", GATE.render(record))
    assert record["pass"], record["gates"]
    (lan,) = record["metrics"]["profiles"]
    assert lan["outcomes"].get("authenticated", 0) == lan["requests"] == 6
