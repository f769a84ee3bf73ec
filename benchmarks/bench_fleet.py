"""Fleet benchmark — host-device scaling.

A ``host`` hashes on every core of the cpuset (one device whose ranges
the kernel's pool spreads over the cores): the cpuset's cores against
one, on alternating exhaustive sweeps, is the gated reading
(``worker_scaling_ratio``). The sweeps' targets are absent, so any
found seed is a false authentication.

The gate itself is ``repro fleet --bench`` (:mod:`repro.gates`); this
file is its pytest entry::

    PYTHONPATH=src python -m repro fleet --bench --output BENCH_fleet.json
"""

from repro.gates import GATES, _WORKER_SCALING_FLOOR, measure

GATE = GATES["fleet"]


def test_host_device_scales_over_the_cpuset(report):
    """The acceptance claim of the bench: no false authentication, and
    where there is a ratio to read it holds the gate's floor."""
    record = measure(GATE, [])
    report("fleet", GATE.render(record))
    metrics = record["metrics"]
    assert metrics["false_authentications"] == 0
    ratio = metrics["worker_scaling_ratio"]
    assert ratio is None or ratio >= _WORKER_SCALING_FLOOR
