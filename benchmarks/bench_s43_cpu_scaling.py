"""Experiment S4.3 — CPU strong scaling (59x / 63x on 64 cores).

Modeled reproduction of the Section 4.3 speedups plus the Section 5
future-work cluster extrapolation, and a real multi-thread scaling
measurement on this host's cores.
"""

import os

from conftest import comparison_table, quiet_sweep_seconds, record_report

from repro.analysis.tables import format_table
from repro.devices import CPUModel

PAPER_SPEEDUPS = {"sha1": 59.0, "sha3-256": 63.0}


def modeled_speedups():
    cpu = CPUModel()
    return {h: cpu.speedup(h, 64) for h in PAPER_SPEEDUPS}


def test_s43_speedup_reproduction(benchmark, report):
    ours = benchmark(modeled_speedups)
    report(
        "s43_cpu_scaling",
        comparison_table(
            "Section 4.3 — speedup on 64 CPU cores (exhaustive d=5)",
            [(h, PAPER_SPEEDUPS[h], ours[h]) for h in PAPER_SPEEDUPS],
        ),
    )
    for h, paper in PAPER_SPEEDUPS.items():
        assert abs(ours[h] - paper) / paper < 0.02


def test_s43_scaling_curve(benchmark, report):
    cpu = CPUModel()
    benchmark(lambda: cpu.speedup("sha1", 64))
    rows = []
    for p in (1, 2, 4, 8, 16, 32, 64):
        rows.append(
            [p]
            + [f"{cpu.speedup(h, p):.1f}x" for h in ("sha1", "sha3-256")]
        )
    record_report(
        "s43_scaling_curve",
        format_table(
            ["cores", "sha1 speedup", "sha3 speedup"],
            rows,
            title="Modeled strong-scaling curve (EPYC 7542 x2)",
        ),
    )
    # Near-perfect parallel efficiency at 64 cores, as the paper reports.
    assert cpu.speedup("sha3-256", 64) / 64 > 0.95


def test_s5_cluster_future_work(benchmark, report):
    """Section 5: scale the CPU engine across nodes until SHA-3 meets T."""
    cpu = CPUModel()
    benchmark(lambda: cpu.cluster_time("sha3-256", 5, nodes=4))
    rows = []
    first_ok = None
    for nodes in (1, 2, 3, 4, 8):
        t = cpu.cluster_time("sha3-256", 5, nodes=nodes)
        ok = t <= 20.0
        if ok and first_ok is None:
            first_ok = nodes
        rows.append([nodes, f"{t:.2f}", "yes" if ok else "no"])
    record_report(
        "s5_cluster_extrapolation",
        format_table(
            ["nodes (64 cores each)", "search (s)", "meets T=20?"],
            rows,
            title="Future work — multi-node CPU cluster, SHA-3 exhaustive d=5",
        ),
    )
    assert first_ok is not None and first_ok <= 4


def test_real_host_scaling(benchmark, report):
    """Measured strong scaling of the worker set on this machine: one
    ``host`` device on 1, 2, 3 and 4 scan threads (more than the cpuset
    holds is oversubscribed on purpose), exhaustive d=2, SHA3-256."""
    from repro.hashes import compiled
    from repro.hashes.sha3 import sha3_256

    benchmark(lambda: sha3_256(bytes(32)))

    cpus = len(os.sched_getaffinity(0))
    counts = (1, 2, 3, 4)
    times = quiet_sweep_seconds(counts)
    hashes = 1 + 256 + 32640
    rows = [
        [
            f"{w}{'' if w <= cpus else ' (oversubscribed)'}",
            f"{times[w] * 1e3:.1f}",
            f"{hashes / times[w]:,.0f}",
            f"{times[1] / times[w]:.2f}x",
            f"{times[1] / times[w] / min(w, cpus):.0%}",
        ]
        for w in counts
    ]
    record_report(
        "s43_real_host_scaling",
        format_table(
            ["workers", "ms / sweep", "hashes/s", "speedup", "efficiency"],
            rows,
            title=(
                f"Real scaling on this host ({cpus} cpus): parallel:sha3-256,"
                "bs=16384, exhaustive d=2, quiet-most of 12 warm sweeps"
            ),
        ),
    )
    # On the hashlib fallback the threads share the interpreter lock.
    if cpus > 1 and compiled.load() is not None:
        assert times[1] / times[cpus] > 1.3
