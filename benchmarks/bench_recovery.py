"""Recovery benchmark — kill-9 crash-restart storm over real processes.

The durability tentpole's acceptance rig: real ``repro.deploy.server``
processes with WAL-backed enrollment stores are SIGKILLed mid-burst,
restarted under the supervisor's backoff/budget policy, and held to the
crash-consistency contract. Reported per kill-9 round: records replayed
at recovery and the recovery wall time; overall: acknowledged-enrollment
throughput under ``fsync=always`` versus the no-fsync lossy baseline
(the price of durability), restart count, and total backoff slept.

Gates (exit 1 on any):

* zero acknowledged enrollments lost across all kill-9 rounds;
* zero nonce-reuse tripwire firings (the crypto-safety invariant);
* zero false authentications, and every post-recovery authentication
  succeeds;
* every surviving server drains and exits 0 under SIGTERM.

The gate itself is ``repro deploy --storm --crash`` (:mod:`repro.gates`);
this file is its reduced-scale pytest entry::

    PYTHONPATH=src python -m repro deploy --storm --crash --output BENCH_recovery.json
"""

from repro.gates import GATES, measure

GATE = GATES["recovery"]


def test_recovery_crash_storm(report, tmp_path, monkeypatch):
    """Reduced-scale pytest entry: 2 kill-9 rounds, real processes."""
    monkeypatch.chdir(tmp_path)  # the storm's scratch files land in cwd
    record = measure(GATE, ["--clients", "4", "--crashes", "2"])
    report("recovery", GATE.render(record))
    assert record["pass"], record["gates"]
    assert all(r["recovered_records"] > 0 for r in record["metrics"]["rounds"])
