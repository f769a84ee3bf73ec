"""Experiment F4 — Figure 4: multi-GPU scalability, 1-3x A100.

Regenerates the four speedup series (SHA-1/SHA-3 x exhaustive/early-exit)
and checks the paper's reported endpoints and orderings. A real
multi-thread strong-scaling run on this host cross-checks that the
data-parallel split + early-exit-flag structure actually scales.
"""

from conftest import comparison_table, quiet_sweep_seconds, record_report

from repro.analysis.tables import format_table
from repro.devices import speedup_curve

PAPER_ENDPOINTS = {
    ("sha3-256", "exhaustive"): 2.87,
    ("sha3-256", "average"): 2.66,
}


def all_curves():
    return {
        (h, mode): speedup_curve(h, mode, 3)
        for h in ("sha1", "sha3-256")
        for mode in ("exhaustive", "average")
    }


def test_fig4_reproduction(benchmark, report):
    curves = benchmark(all_curves)
    rows = []
    for (h, mode), points in curves.items():
        rows.append(
            [h, mode] + [f"{p.speedup:.2f}x" for p in points]
        )
    table = format_table(
        ["hash", "search type", "1 GPU", "2 GPUs", "3 GPUs"],
        rows,
        title="Figure 4 — multi-GPU speedup (search-only, d=5)",
    )
    endpoint_rows = [
        (f"{h}/{mode} @3 GPUs", paper, curves[(h, mode)][2].speedup)
        for (h, mode), paper in PAPER_ENDPOINTS.items()
    ]
    from repro.analysis.plots import line_plot

    plot = line_plot(
        {
            f"{h}/{mode[:4]}": [(p.num_gpus, p.speedup) for p in pts]
            for (h, mode), pts in curves.items()
        },
        title="Figure 4 (reproduced)",
        x_label="GPUs",
        y_label="speedup",
    )
    report(
        "fig4_multigpu",
        table
        + "\n\n"
        + comparison_table("Reported endpoints", endpoint_rows)
        + "\n\n"
        + plot,
    )

    for (h, mode), paper in PAPER_ENDPOINTS.items():
        assert abs(curves[(h, mode)][2].speedup - paper) / paper < 0.03

    # Orderings (Section 4.8): exhaustive scales better than early exit;
    # SHA-3 scales better than SHA-1 for a given search type.
    for h in ("sha1", "sha3-256"):
        assert curves[(h, "exhaustive")][2].speedup > curves[(h, "average")][2].speedup
    for mode in ("exhaustive", "average"):
        assert (
            curves[("sha3-256", mode)][2].speedup
            > curves[("sha1", mode)][2].speedup
        )


def test_real_multiprocess_scaling(benchmark, report):
    """Strong scaling of the real scan threads on this host.

    Reduced scale (exhaustive d=2 without a match) so the run stays in
    seconds; the ``parallel:`` engines are warm, as the paper's GPUs are
    when its search clock starts.
    """
    import os

    from repro.hashes import compiled
    from repro.hashes.sha3 import sha3_256

    benchmark(lambda: sha3_256(bytes(32)))

    available = len(os.sched_getaffinity(0))
    worker_counts = tuple(w for w in (1, 2, 4) if w <= available)
    times = quiet_sweep_seconds(worker_counts)

    rows = [
        [w, f"{times[w] * 1e3:.1f}", f"{times[1] / times[w]:.2f}x"]
        for w in worker_counts
    ]
    record_report(
        "fig4_real_host_scaling",
        format_table(
            ["workers", "ms / sweep", "speedup"],
            rows,
            title=(
                "Real multi-thread strong scaling (parallel:sha3-256,bs=16384, "
                "exhaustive d=2, this host)"
            ),
        ),
    )
    if len(worker_counts) > 1 and compiled.load() is not None:
        # Threads on the kernel, which releases the interpreter lock:
        # more of them must help.
        assert times[worker_counts[-1]] < times[1]
