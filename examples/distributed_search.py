"""Distributed and multi-accelerator scaling (the paper's Section 5).

Three scaling stories in one run:

1. the *real* distributed cluster engine splitting one search across
   MPI-style ranks on this host (reduced scale);
2. the modeled multi-node CPU cluster that brings SHA-3 under the T=20 s
   threshold (4 nodes);
3. the modeled 8x-APU chassis the paper proposes (2U form factor),
   compared with 3x A100.

    python examples/distributed_search.py
"""

import numpy as np

from repro.analysis.plots import bar_chart, line_plot
from repro.analysis.tables import format_table
from repro.devices import APUModel, CPUModel, GPUModel, speedup_curve
from repro.hashes.sha1 import sha1
from repro.runtime.cluster import ClusterSearchExecutor, Interconnect


def real_cluster_demo() -> None:
    rng = np.random.default_rng(2026)
    base = rng.bytes(32)
    absent = sha1(rng.bytes(32))

    print("Real distributed search on this host (SALTED, SHA-1, exhaustive d=2):")
    rows = []
    for ranks in (1, 2, 4):
        cluster = ClusterSearchExecutor(ranks, "sha1", batch_size=4096)
        result = cluster.search(base, absent, 2)
        slowest = max(result.cluster.per_rank_seconds)
        rows.append(
            [ranks, f"{result.seeds_hashed:,}", f"{slowest:.2f}",
             f"{result.elapsed_seconds:.2f}"]
        )
    print(format_table(
        ["ranks", "seeds (all ranks)", "slowest rank (s)", "wall (s)"], rows
    ))

    from repro._bitutils import flip_bits

    client = flip_bits(base, [7, 201])
    cluster = ClusterSearchExecutor(4, "sha1", batch_size=4096)
    result = cluster.search(base, sha1(client), 2)
    print(
        f"\nplanted d=2 seed: found by rank {result.cluster.finder_rank} in "
        f"{result.elapsed_seconds:.2f} s wall; the distributed exit flag "
        "stopped the other ranks after one in-flight batch."
    )

    slow_fabric = Interconnect(
        name="WAN", broadcast_seconds=0.2, allreduce_seconds=0.2,
        gather_seconds=0.2, exit_propagation_seconds=0.2,
    )
    wan = ClusterSearchExecutor(
        4, "sha1", batch_size=4096, interconnect=slow_fabric
    ).search(base, sha1(client), 2)
    print(
        f"same search over a WAN-grade fabric: {wan.elapsed_seconds:.2f} s "
        "(fabric costs dominate small searches — why the paper keeps the "
        "search inside one node until d grows)"
    )


def modeled_scaling_stories() -> None:
    cpu = CPUModel()
    print("\nModeled multi-node CPU cluster (SHA-3 exhaustive d=5, T=20 s):")
    rows = []
    for nodes in (1, 2, 4, 8):
        t = cpu.cluster_time("sha3-256", 5, nodes=nodes)
        rows.append([nodes, f"{t:.2f}", "yes" if t <= 20 else "no"])
    print(format_table(["nodes", "search (s)", "meets T?"], rows))

    print("\nModeled accelerator chassis for SHA-3 exhaustive d=5:")
    options = {
        "1x A100": GPUModel().search_time("sha3-256", 5),
        "3x A100": GPUModel().search_time("sha3-256", 5, num_gpus=3),
        "1x APU": APUModel().search_time("sha3-256", 5),
        "8x APU (2U)": APUModel(num_apus=8).search_time("sha3-256", 5),
    }
    print(bar_chart(options, title="search seconds (lower is better)",
                    value_format="{:.2f} s"))
    print(
        "\nthe paper's future-work bet: eight small-form-factor APUs in "
        "one chassis out-scale a 3-GPU node on this workload."
    )

    print("\nMulti-GPU speedup curves (Figure 4):")
    series = {}
    for h in ("sha1", "sha3-256"):
        for mode in ("exhaustive", "average"):
            pts = speedup_curve(h, mode, 3)
            series[f"{h}/{mode[:4]}"] = [(p.num_gpus, p.speedup) for p in pts]
    print(line_plot(series, x_label="GPUs", y_label="speedup"))


def main() -> None:
    real_cluster_demo()
    modeled_scaling_stories()


if __name__ == "__main__":
    main()
