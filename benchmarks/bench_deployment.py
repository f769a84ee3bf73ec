"""Deployment benchmark — kill-9 rounds, then end-to-end latency, over
real processes.

Everything else in ``benchmarks/`` measures the serving stack inside one
process. This bench deploys it: real ``repro.deploy.server`` and
``repro.deploy.loadgen`` OS processes over real TCP, one storm per WAN
profile (``lan``, ``wan``, ``lossy-wan``). Each storm SIGKILLs its
WAL-backed servers mid-enrollment burst and restarts them, then drives
the same deterministic heavy-tailed/diurnal trace against the recovered
servers. Reported per profile: records replayed and recovery time per
kill-9 round, acknowledged-enrollment audit, restarts and backoff,
end-to-end p50/p99 (client-observed wall clock, including WAN emulation
and retries), completed-request throughput, and the server-side
shed/redispatch counters scraped over the admin metrics frame; on the
first profile, durable vs no-fsync enrollment throughput.

Gates (exit 1 on any):

* zero false authentications on every profile;
* zero untyped client-observed failures and no request lost;
* zero acknowledged enrollments lost, zero nonce-reuse tripwire
  firings, and a restarted server takes enrollments again;
* the ``lan`` profile authenticates 100% of requests on the recovered
  servers;
* every server drains and exits 0 under SIGTERM.

The gate itself is ``repro deploy --storm`` (:mod:`repro.gates`); this
file is its reduced-scale pytest entry::

    PYTHONPATH=src python -m repro deploy --storm --output BENCH_deployment.json
"""

from repro.gates import GATES, measure

GATE = GATES["deployment"]


def test_deployment_lan_storm(report, tmp_path, monkeypatch):
    """Reduced-scale pytest entry: lan-only, one kill-9 round, real
    processes end to end."""
    monkeypatch.chdir(tmp_path)  # the storm's scratch files land in cwd
    record = measure(
        GATE,
        ["--profiles", "lan", "--requests", "6", "--duration", "1.5",
         "--clients", "4", "--loadgens", "1", "--budget", "3.0",
         "--crashes", "1"],
    )
    report("deployment", GATE.render(record))
    assert record["pass"], record["gates"]
    (lan,) = record["metrics"]["profiles"]
    assert lan["outcomes"].get("authenticated", 0) == lan["requests"] == 6
    assert [r["recovered_records"] > 0 for r in lan["rounds"]] == [True]
