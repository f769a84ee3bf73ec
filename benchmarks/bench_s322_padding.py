"""Experiment S3.2.2 — the fixed-padding SHA-3 optimization (~3%).

RBC only hashes 32-byte seeds, so the sponge's padded block is a
constant template. The paper measured ~3% end-to-end gain on the GPU.
We reproduce it twice: modeled (the calibrated factor) and measured
(real batched kernels with the generic byte-level padding path vs the
fixed template) — plus the same measurement for SHA-1/SHA-256, which the
paper applied on CPU and GPU alike.
"""

import time

import numpy as np
from conftest import comparison_table, record_report

from repro.analysis.tables import format_table
from repro.devices import GPUModel
from repro.hashes.registry import get_hash

BATCH = 120_000


def _rate(algo, words, fixed: bool) -> float:
    start = time.perf_counter()
    algo.batch(words, fixed_padding=fixed)
    return words.shape[0] / (time.perf_counter() - start)


def test_s322_modeled(benchmark, report):
    gpu = GPUModel()
    benchmark(lambda: gpu.search_time("sha3-256", 5, fixed_padding=False))
    fast = gpu.search_time("sha3-256", 5, fixed_padding=True)
    slow = gpu.search_time("sha3-256", 5, fixed_padding=False)
    report(
        "s322_padding_modeled",
        comparison_table(
            "Section 3.2.2 — fixed-padding gain, modeled GPU",
            [("generic/fixed time ratio", 1.03, slow / fast)],
        ),
    )
    assert abs(slow / fast - 1.03) < 0.01


def _stage_seconds(fn, words, repeats: int = 7) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn(words)
        best = min(best, time.perf_counter() - start)
    return best


def test_s322_measured_padding_stage(benchmark, report):
    """Real kernels, padding stage isolated.

    On this host the compression rounds dominate so completely that the
    end-to-end gain is below measurement noise (the paper's 3% is a GPU
    branch-divergence effect); the *stage* the optimization removes is
    still directly measurable: building the padded block generically
    costs a deterministic multiple of stamping the fixed template.
    """
    from repro.hashes.batch_sha1 import _padded_block_fixed, _padded_block_generic
    from repro.hashes.batch_sha3 import (
        _absorb_seed_block_fixed,
        _absorb_seed_block_generic,
        _scratch_for,
    )

    rng = np.random.default_rng(31)
    words = rng.integers(0, 1 << 63, size=(BATCH, 4), dtype=np.int64).astype(np.uint64)

    def absorb_fixed(w):
        _absorb_seed_block_fixed(w, _scratch_for(w.shape[0]))

    benchmark(lambda: _padded_block_fixed(words[:1000]))

    rows = []
    ratios = {}
    for label, fixed_fn, generic_fn in (
        ("sha1/sha256 block", _padded_block_fixed, _padded_block_generic),
        ("sha3 sponge absorb", absorb_fixed, _absorb_seed_block_generic),
    ):
        fixed_s = _stage_seconds(fixed_fn, words)
        generic_s = _stage_seconds(generic_fn, words)
        ratios[label] = generic_s / fixed_s
        rows.append(
            [label, f"{fixed_s * 1e3:.1f}", f"{generic_s * 1e3:.1f}",
             f"{generic_s / fixed_s:.2f}x"]
        )
    record_report(
        "s322_padding_measured",
        format_table(
            ["stage", "fixed (ms)", "generic (ms)", "generic cost"],
            rows,
            title=f"Padding-stage cost, {BATCH:,} seeds, real kernels (this host)",
        )
        + "\npaper: ~3% end-to-end on the GPU; here the isolated stage shows "
        "the removed work directly.",
    )
    for label, ratio in ratios.items():
        assert ratio > 1.0, label


def test_s322_end_to_end_kernels(benchmark, report):
    """End-to-end kernel rates both ways (informational on this host)."""
    rng = np.random.default_rng(37)
    words = rng.integers(0, 1 << 63, size=(BATCH, 4), dtype=np.int64).astype(np.uint64)
    algo = get_hash("sha3-256")
    algo.batch(words[:1000])  # warm-up
    fixed = _rate(algo, words, True)
    generic = _rate(algo, words, False)
    record_report(
        "s322_padding_end_to_end",
        f"sha3-256 end-to-end: fixed {fixed:,.0f} H/s, generic {generic:,.0f} H/s "
        f"(ratio {fixed / generic:.3f}; below noise on NumPy lanes — the 3% "
        "figure is specific to the GPU's execution model)",
    )
    benchmark(lambda: algo.batch(words[:20000], fixed_padding=True))
