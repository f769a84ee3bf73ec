"""Fleet benchmark — multi-device scaling and hedged-straggler p99.

Two claims behind :mod:`repro.fleet`, measured on the real kernel:

* **Scaling** — a ``host`` device hashes on every core of the cpuset
  (one scan thread per core): the cpuset's cores against one, on
  alternating exhaustive sweeps, is the gated reading
  (``worker_scaling_ratio``). The two-device ``scaling_ratio`` on the
  planted workload is recorded but not gated — both devices hash on the
  one worker set, so warm it reads 1.0x by construction.
  The hard gates are the protocol ones: zero lost requests and zero
  false authentications, re-verified by re-hashing every found seed.

* **Hedging** — on a fleet with one throttled straggler device
  (``slow-host``), duplicating its overdue batches onto the idle fast
  device (first result wins) cuts the straggler-class p99 latency. The
  same workload runs with hedging disabled and enabled; the gate is
  ``hedged p99 <= unhedged p99`` with at least one hedge launched.

The gate itself is ``repro fleet --bench`` (:mod:`repro.gates`); this
file is its reduced-scale pytest entry::

    PYTHONPATH=src python -m repro fleet --bench --output BENCH_fleet.json
"""

from repro.gates import GATES, measure

GATE = GATES["fleet"]


def test_fleet_scales_and_hedging_cuts_straggler_p99(report):
    """Reduced-scale pytest entry: the acceptance claims of the bench.

    Asserts on the metrics, not on the gate verdict: with two straggler
    requests p99 == max, so the thresholds are looser than the gate's.
    """
    record = measure(
        GATE,
        ["--requests", "6", "--depths", "1,2", "--straggler-requests", "2",
         "--batch-size", "4096"],
    )
    report("fleet", GATE.render(record))
    metrics = record["metrics"]
    assert metrics["lost_requests"] == 0
    assert metrics["false_authentications"] == 0
    assert metrics["hedged"]["hedges_launched"] > 0
    assert metrics["hedged"]["p99_seconds"] <= (
        metrics["unhedged"]["p99_seconds"] * 1.2
    )
