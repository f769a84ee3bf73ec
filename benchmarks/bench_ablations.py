"""Ablation benches for the design choices DESIGN.md calls out.

* Lane width (batch size) of the vectorized executor — the reproduction's
  analogue of GPU occupancy tuning (Figure 3's axis, on real hardware).
* TAPKI masking threshold — enrollment strictness vs effective client
  bit-error rate vs search tractability (the Section 2.1 design knob).
* Salt scheme cost — the three salt options all cost ~nothing next to a
  single shell of search (why the paper can afford the salting step).
"""

import time

import numpy as np
from conftest import record_report

from repro.analysis.tables import format_table
from repro.core.complexity import tractable_distance
from repro.core.salting import HashChainSalt, RotateSalt, XorSalt
from repro.puf.model import SRAMPuf
from repro.puf.ternary import enroll_with_masking
from repro.engines import build_engine


def test_ablation_lane_width(benchmark, report):
    """Hash throughput vs batch size on this host."""
    rng = np.random.default_rng(67)
    words = rng.integers(0, 1 << 63, size=(1 << 16, 4), dtype=np.int64).astype(np.uint64)
    from repro.hashes.registry import get_hash

    algo = get_hash("sha3-256")
    algo.batch(words[:256])  # warm-up
    rows = []
    rates = {}
    for width in (64, 256, 1024, 4096, 16384, 65536):
        chunk = words[:width]
        repeats = max(1, 16384 // width)
        start = time.perf_counter()
        for _ in range(repeats):
            algo.batch(chunk)
        elapsed = time.perf_counter() - start
        rates[width] = width * repeats / elapsed
        rows.append([width, f"{rates[width]:12,.0f}"])
    best = max(rates, key=rates.get)
    report(
        "ablation_lane_width",
        format_table(
            ["batch size (lanes)", "sha3-256 hashes/s"],
            rows,
            title="Lane-width ablation (the host analogue of Figure 3's n axis)",
        )
        + f"\nbest width: {best} — like the GPU, the vector engine needs "
        "enough parallel work to amortize per-kernel overhead, then "
        "plateaus.",
    )
    # Wide beats narrow by a large factor (the oversubscription story).
    assert rates[16384] > 3 * rates[64]

    benchmark(lambda: algo.batch(words[:4096]))


def test_ablation_tapki_threshold(benchmark, report):
    """Masking strictness vs usable cells vs residual error rate."""
    puf = SRAMPuf(num_cells=8192, stable_fraction=0.85, seed=71)
    rows = []
    summary = {}
    for threshold in (0.30, 0.10, 0.05, 0.02):
        mask = enroll_with_masking(
            puf, 0, 8192, reads=48, instability_threshold=threshold
        )
        residual = float(puf.flip_probability[mask.usable][:256].mean())
        expected_d = residual * 256
        rows.append(
            [f"{threshold:.2f}", mask.usable_count,
             f"{residual:.4f}", f"{expected_d:.1f}"]
        )
        summary[threshold] = (mask.usable_count, expected_d)
    report(
        "ablation_tapki",
        format_table(
            ["instability threshold", "usable cells", "mean flip prob (seed cells)",
             "E[d] per read"],
            rows,
            title="TAPKI masking threshold ablation (8192-cell device, 15% erratic)",
        )
        + "\nstricter masking -> fewer usable cells but exponentially "
        "cheaper searches; the CA needs E[d] <= 5 for the T=20 s budget.",
    )
    # Stricter thresholds must reduce expected distance and usable cells.
    assert summary[0.02][1] < summary[0.30][1]
    assert summary[0.02][0] < summary[0.30][0]
    # The strict setting lands in the paper's tractable regime.
    assert summary[0.02][1] < 5.0

    benchmark(
        lambda: enroll_with_masking(puf, 0, 2048, reads=16, instability_threshold=0.05)
    )


def test_ablation_salt_cost(benchmark, report):
    """All salt schemes are negligible next to one search shell."""
    rng = np.random.default_rng(73)
    seed = rng.bytes(32)
    schemes = [
        ("rotate", RotateSalt(96)),
        ("xor", XorSalt(rng.bytes(32))),
        ("hash-chain", HashChainSalt()),
    ]
    rows = []
    shell_seconds = None
    executor = build_engine("batch:sha3-256,bs=257")
    from repro.hashes.sha3 import sha3_256

    start = time.perf_counter()
    executor.search(seed, sha3_256(rng.bytes(32)), 1)
    shell_seconds = time.perf_counter() - start

    for name, scheme in schemes:
        start = time.perf_counter()
        for _ in range(200):
            scheme(seed)
        per_op = (time.perf_counter() - start) / 200
        rows.append(
            [name, f"{per_op * 1e6:.1f}", f"{per_op / shell_seconds:.2e}"]
        )
    report(
        "ablation_salt_cost",
        format_table(
            ["salt scheme", "µs per salt", "fraction of one d=1 shell"],
            rows,
            title="Salt-scheme cost ablation",
        )
        + "\n(the paper's 'generate the key once' claim: even the "
        "strongest salt is noise next to the search)",
    )
    benchmark(lambda: HashChainSalt()(seed))
