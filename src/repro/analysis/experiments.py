"""Programmatic index of the reproduction's experiments.

One registry mapping experiment ids to the paper artifact, the modules
involved, and the bench that regenerates them — the machine-readable
twin of DESIGN.md's per-experiment table. The CLI's ``experiments``
command renders it; tests assert that every referenced bench file
actually exists, so the index cannot rot silently.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Experiment", "EXPERIMENTS", "get_experiment", "render_index"]


@dataclass(frozen=True)
class Experiment:
    """One reproducible artifact of the paper (or an extension)."""

    experiment_id: str
    paper_artifact: str
    description: str
    modules: tuple[str, ...]
    bench: str
    extension: bool = False


EXPERIMENTS: tuple[Experiment, ...] = (
    Experiment(
        "T1", "Table 1", "search-space sizes, Equations 1 & 3 (exact)",
        ("repro.core.complexity", "repro.combinatorics.binomial"),
        "benchmarks/bench_table1_complexity.py",
    ),
    Experiment(
        "F3", "Figure 3", "grid search over seeds/thread and threads/block",
        ("repro.devices.gpu",),
        "benchmarks/bench_fig3_gridsearch.py",
    ),
    Experiment(
        "T4", "Table 4", "seed-iterator comparison (modeled + measured)",
        ("repro.combinatorics", "repro.devices.gpu"),
        "benchmarks/bench_table4_iterators.py",
    ),
    Experiment(
        "T5", "Table 5", "end-to-end response times, all platforms",
        ("repro.devices", "repro.net.transport"),
        "benchmarks/bench_table5_end_to_end.py",
    ),
    Experiment(
        "T6", "Table 6", "GPU vs APU energy",
        ("repro.devices.energy",),
        "benchmarks/bench_table6_energy.py",
    ),
    Experiment(
        "F4", "Figure 4", "multi-GPU scalability",
        ("repro.devices.multi_gpu",),
        "benchmarks/bench_fig4_multigpu.py",
    ),
    Experiment(
        "T7", "Table 7", "vs prior algorithm-aware RBC engines",
        ("repro.core.original_rbc", "repro.keygen", "repro.devices"),
        "benchmarks/bench_table7_prior_work.py",
    ),
    Experiment(
        "S4.3", "Section 4.3", "CPU strong scaling (59x/63x on 64 cores)",
        ("repro.devices.cpu", "repro.fleet.batcher"),
        "benchmarks/bench_s43_cpu_scaling.py",
    ),
    Experiment(
        "S4.4", "Section 4.4", "exit-flag check-granularity sweep",
        ("repro.runtime.executor",),
        "benchmarks/bench_s44_flagcheck.py",
    ),
    Experiment(
        "S3.2.2", "Section 3.2.2", "fixed-padding optimization (~3%)",
        ("repro.hashes.batch_sha3", "repro.devices.gpu"),
        "benchmarks/bench_s322_padding.py",
    ),
    Experiment(
        "S3.2.3", "Section 3.2.3", "Chase state in shared memory",
        ("repro.devices.gpu",),
        "benchmarks/bench_s323_sharedmem.py",
    ),
    Experiment(
        "E-LIVE", "extension", "live original-RBC vs SALTED engines",
        ("repro.runtime.original_batch", "repro.core.original_rbc"),
        "benchmarks/bench_ext_original_live.py",
        extension=True,
    ),
    Experiment(
        "E-CLST", "extension", "distributed cluster + 1,200-trial methodology",
        ("repro.runtime.cluster", "repro.analysis.trials"),
        "benchmarks/bench_ext_cluster_trials.py",
        extension=True,
    ),
    Experiment(
        "E-BITS", "extension", "APU cost structure from bit-serial op counts",
        ("repro.devices.associative", "repro.devices.bitserial"),
        "benchmarks/bench_ext_bitserial.py",
        extension=True,
    ),
    Experiment(
        "E-CAP", "extension", "CA capacity (authentications/hour, queueing)",
        ("repro.analysis.workload",),
        "benchmarks/bench_ext_capacity.py",
        extension=True,
    ),
    Experiment(
        "E-ENV", "extension", "environmental operating envelope",
        ("repro.puf.environment",),
        "benchmarks/bench_ext_environment.py",
        extension=True,
    ),
    Experiment(
        "E-ABL", "extension", "ablations: lane width, TAPKI threshold, salt cost",
        ("repro.runtime.executor", "repro.puf.ternary", "repro.core.salting"),
        "benchmarks/bench_ablations.py",
        extension=True,
    ),
    Experiment(
        "E-HOST", "extension", "this machine measured as a fourth platform",
        ("repro.devices.host",),
        "benchmarks/bench_ext_host.py",
        extension=True,
    ),
    Experiment(
        "E-ECC", "extension", "client-side ECC vs RBC; associative data path",
        ("repro.puf.fuzzy_extractor", "repro.devices.bitserial_search"),
        "benchmarks/bench_ext_ecc_contrast.py",
        extension=True,
    ),
)


def get_experiment(experiment_id: str) -> Experiment:
    """Look up one experiment by id (case-insensitive)."""
    wanted = experiment_id.upper()
    for experiment in EXPERIMENTS:
        if experiment.experiment_id.upper() == wanted:
            return experiment
    raise KeyError(f"unknown experiment {experiment_id!r}")


def render_index() -> str:
    """The index as an aligned text table."""
    from repro.analysis.tables import format_table

    rows = [
        [
            e.experiment_id,
            e.paper_artifact,
            e.description,
            e.bench.rsplit("/", 1)[-1],
        ]
        for e in EXPERIMENTS
    ]
    return format_table(
        ["id", "artifact", "description", "bench"],
        rows,
        title="Reproduction experiment index",
    )
