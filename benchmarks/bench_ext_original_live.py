"""Extension — live algorithm-aware RBC vs RBC-SALTED (Table 7 companion).

The calibrated Table 7 bench reproduces the paper's numbers; this one
runs the *actual engines* head-to-head on this host with the vectorized
key-agile cipher kernels, at reduced Hamming distance. It shows where
the paper's conclusion is platform-dependent: on CUDA, AES beat SHA-3 by
~45%; on NumPy lanes the cheap ARX ciphers (SPECK/ChaCha) also beat the
batched SHA-3 hash, while AES's table gathers make it slower — the
*structure* (original RBC pays per-candidate keygen; SALTED pays one
hash) is what carries across platforms, and the PQC rows show it.
"""

import time

import numpy as np
from conftest import record_report

from repro._bitutils import flip_bits
from repro.analysis.tables import format_table
from repro.hashes.sha3 import sha3_256
from repro.keygen.interface import get_keygen
from repro.engines import build_engine
from repro.runtime.original_batch import BATCH_KEYGEN_CHOICES, BatchOriginalRBCSearch


def test_live_engine_comparison(benchmark, report):
    """Identical exhaustive d=1 miss for every engine, real code."""
    rng = np.random.default_rng(41)
    base = rng.bytes(32)
    absent_seed = rng.bytes(32)

    rows = []
    # RBC-SALTED (the hash search).
    salted = build_engine("batch:sha3-256,bs=257")
    start = time.perf_counter()
    result = salted.search(base, sha3_256(absent_seed), 1)
    salted_seconds = time.perf_counter() - start
    assert not result.found
    rows.append(["RBC-SALTED (sha3-256)", f"{salted_seconds * 1e3:8.1f}",
                 f"{result.seeds_hashed / salted_seconds:12,.0f}"])

    # Original RBC with each batched cipher.
    for name in BATCH_KEYGEN_CHOICES:
        engine = BatchOriginalRBCSearch(name, batch_size=257)
        target = get_keygen(name).public_key(absent_seed)
        start = time.perf_counter()
        result = engine.search(base, target[: engine.algo.digest_size], 1)
        seconds = time.perf_counter() - start
        assert not result.found
        rows.append([f"Original RBC ({name})", f"{seconds * 1e3:8.1f}",
                     f"{result.seeds_hashed / seconds:12,.0f}"])

    report(
        "ext_original_live",
        format_table(
            ["engine", "exhaustive d=1 (ms)", "candidates/s"],
            rows,
            title="Live engines on this host — identical d=1 exhaustive miss",
        )
        + "\n(PQC original-RBC is benchmarked scalar in table7_real_asymmetry:"
        "\n ~60 keygens/s vs ~290k hashes/s — the regime Table 7 reports.)",
    )

    benchmark(lambda: salted.search(base, sha3_256(absent_seed), 1))


def test_structural_claim_holds_for_pqc(benchmark, report):
    """RBC-SALTED vs original RBC with PQC keygen: the paper's actual
    comparison, live, planted at d=1 (average case)."""
    rng = np.random.default_rng(43)
    base = rng.bytes(32)
    client = flip_bits(base, [128])

    salted = build_engine("batch:sha3-256,bs=512")
    start = time.perf_counter()
    r1 = salted.search(base, sha3_256(client), 1)
    salted_seconds = time.perf_counter() - start

    from repro.core.original_rbc import OriginalRBCSearch

    keygen = get_keygen("dilithium3")
    original = OriginalRBCSearch(keygen)
    start = time.perf_counter()
    r2 = original.search(base, keygen.public_key(client), 1)
    original_seconds = time.perf_counter() - start

    assert r1.found and r2.found and r1.seed == r2.seed
    advantage = original_seconds / salted_seconds
    record_report(
        "ext_pqc_advantage",
        f"Dilithium3-original vs SHA3-SALTED, same planted d=1 seed:\n"
        f"  original {original_seconds:.2f} s vs salted {salted_seconds:.4f} s "
        f"-> {advantage:,.0f}x advantage (paper's GPU ratio at d=4: "
        f"27.91/4.67 = 6.0x across a 50x larger relative space)",
    )
    assert advantage > 10

    benchmark(lambda: sha3_256(client))
