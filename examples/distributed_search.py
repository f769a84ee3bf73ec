"""Distributed and multi-accelerator scaling (the paper's Section 5).

Three scaling stories in one run:

1. exhaustive searches on this host's one ``host`` device, each of its
   rank ranges hashed on every core by the kernel's pool — the split
   that serves;
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
from repro.engines import build_engine
from repro.hashes.sha1 import sha1


def fleet_split_demo(searches: int = 4) -> None:
    rng = np.random.default_rng(2026)
    absent = sha1(rng.bytes(32))

    print(
        f"Real split on this host: {searches} exhaustive d=2 searches "
        "(SALTED, SHA-1) on one host device, its ranges on every core"
    )
    with build_engine("fleet:host,hash=sha1,bs=4096") as engine:
        tickets = [
            engine.submit(rng.bytes(32), absent, 2) for _ in range(searches)
        ]
        results = [ticket.result() for ticket in tickets]
        devices = engine.scheduler.snapshot()["devices"]
    print(format_table(
        ["device", "batches", "rows hashed"],
        [
            [name, device["batches"], f"{device['rows_hashed']:,}"]
            for name, device in sorted(devices.items())
        ],
    ))
    print(
        f"{sum(r.seeds_hashed for r in results):,} seeds committed; the "
        "device pulled every search's rank ranges from one stream, and its "
        "cores claimed chunks of each. A second host device in the same "
        "process would share those cores, not add any. Early exit and "
        "re-dispatch of a lost device's chunks are what the device-loss "
        "storm (tests/test_fleet.py::TestDeviceLossStorm) holds."
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
    fleet_split_demo()
    modeled_scaling_stories()


if __name__ == "__main__":
    main()
