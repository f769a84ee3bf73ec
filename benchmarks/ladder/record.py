"""From a measurement to named metrics, a provenance record, and --compare."""

from __future__ import annotations

import functools
import json
import math
import os
import platform
import statistics
import subprocess

import numpy as np

from rig import REPO, quiet
from workloads import Measurement

__all__ = [
    "declared",
    "with_units",
    "end_to_end",
    "window_layers",
    "diagnostics",
    "host_fingerprint",
    "git_state",
    "compare",
]

@functools.cache
def declared() -> dict:
    """BENCHMARK.json, the declaration this benchmark is checked against."""
    with open(REPO / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def with_units(metrics: dict[str, float]) -> dict[str, dict]:
    """name -> {value, unit}, each unit as BENCHMARK.json declares it (a
    metric the declaration does not name is an error, not a guess)."""
    units = {
        entry["name"]: entry["unit"]
        for entry in declared()["end_to_end"] + declared()["per_layer"]
    }
    return {
        name: {"value": value, "unit": units[name]}
        for name, value in metrics.items()
    }


def _percentile_ms(seconds: list[float], q: float) -> float:
    return float(np.percentile(seconds, q)) * 1e3 if seconds else 0.0


def end_to_end(m: Measurement) -> dict[str, float]:
    """The end-to-end metrics of one untraced run, each a quiet-host
    reading (see ``rig.quiet``) defined on every workload.

    ``latency_min_ms`` is over the workload's primary operations: an
    authentication, timed from its due time in the open loop; on
    ``enroll_auth_durable`` an enrollment plus the authentication after
    it; on ``search_d3`` a search. ``hashes_per_s`` is the rate of the
    operation whose search ran fastest: the seeds it hashed over the
    seconds it took, as the server's reply states them (as timed here on
    ``search_d3``). At depth 0 that is one seed in one scalar hash.
    """
    rates = [op.seeds / op.search_s for op in m.ops if op.search_s > 0]
    return {
        "setup_s": quiet(m.setup_runs),
        "latency_min_ms": quiet(m.window.latencies) * 1e3,
        # A run none of whose operations got as far as a search has failed.
        "hashes_per_s": max(rates, default=0.0),
        "peak_rss_mb": m.peak_rss_mb,
    }


def diagnostics(m: Measurement) -> dict[str, float]:
    """What every run can also say but no bound is put on.

    Over a 25 s window on this host these measure the neighbours as much
    as the program: between calm and busy spells of the same code the
    closed loops' throughput, median and p90 moved by 0.24-0.50 of their
    median, and the open loop's p50 and p90 by 0.48 and 0.70 (0.17-0.22
    of that is the arrival draw alone, by simulation on a noiseless
    host). The issue's rule demotes a metric whose spread exceeds a tenth.
    """
    succeeded = sum(op.ok for op in m.ops)
    latencies = m.window.latencies
    enrolls = [op.latency_s for op in m.ops if op.kind == "enroll"]
    search_s = sum(op.search_s for op in m.ops)
    return {
        "client.throughput_rps": succeeded / m.window.seconds,
        "client.latency_p50_ms": _percentile_ms(latencies, 50),
        "client.latency_p90_ms": _percentile_ms(latencies, 90),
        "client.latency_p99_ms": _percentile_ms(latencies, 99),
        # A failed operation misses the limit.
        "client.within_limit_share": sum(
            op.ok and op.latency_s <= m.limit_s for op in m.window.primary
        ) / len(latencies),
        "client.enroll_p90_ms": _percentile_ms(enrolls, 90),
        "client.search_hps": (
            sum(op.seeds for op in m.ops) / search_s if search_s else 0.0
        ),
        "deploy.server_cpu_ms_per_req": m.cpu_s * 1e3 / max(1, succeeded),
        "deploy.server_cpu_share": m.cpu_s / m.window.seconds,
        "bench.generator_late_p90_ms": _percentile_ms(m.window.generator_late_s, 90),
        "bench.noisy_slots": float(m.noisy_slots),
        "bench.failed_share": m.failed / len(m.ops),
    }


def window_layers(m: Measurement) -> dict[str, float]:
    """Per-layer numbers the traced window itself gives (counters, shares)."""
    c = m.counters
    completed = c.get("completed", 0.0)
    plans = c.get("plan_hits", 0.0) + c.get("plan_misses", 0.0)
    out = diagnostics(m)
    out.update(
        {
            "fleet.queue_depth_peak": c.get("queue_depth_peak", 0.0),
            "fleet.preempted": c.get("preempted", 0.0),
            "fleet.hedged": c.get("hedged", 0.0),
            "fleet.redispatched": c.get("redispatched", 0.0),
            "net.seeds_hashed_per_req": (
                c.get("seeds_hashed", 0.0) / completed if completed else 0.0
            ),
            "net.shed": c.get("shed", 0.0),
            "net.rejected_busy": c.get("rejected_busy", 0.0),
            "net.plan_hit_share": c.get("plan_hits", 0.0) / plans if plans else 0.0,
            "deploy.server_ready_s": m.ready_s,
            "deploy.drain_s": m.drain_s,
        }
    )
    return out


# -- provenance ---------------------------------------------------------------


def host_fingerprint() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "kernel": platform.release(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "loadavg_at_start": list(os.getloadavg()),
    }


def git_state() -> dict:
    """SHA and dirty flag, or nulls where the checkout is not a repository."""

    def git(*args: str) -> str | None:
        try:
            done = subprocess.run(
                ["git", *args], cwd=REPO, capture_output=True, text=True, timeout=10
            )
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    sha = git("rev-parse", "HEAD")
    status = git("status", "--porcelain") if sha else None
    return {"sha": sha, "dirty": bool(status) if status is not None else None}


# -- compare -------------------------------------------------------------------


def compare(path_a: str, path_b: str) -> int:
    """One row per (workload, metric) of two records; 1 iff any is worse.

    ``worse``/``better`` mean B differs from A by more than the metric's
    bound in that direction, ``same`` that it does not. ``unresolved``:
    the metric has no bound (per-layer), is missing on one side, or its
    base is zero, so no verdict is offered.
    """
    with open(path_a, encoding="utf-8") as a, open(path_b, encoding="utf-8") as b:
        record_a, record_b = json.load(a), json.load(b)
    bounds = {
        entry["name"]: (entry["bound"], entry["better"])
        for entry in declared()["end_to_end"]
    }
    print(
        f"{'workload':<20} {'metric':<34} {'A':>12} {'B':>12} "
        f"{'B/A':>8} {'bound':>6}  verdict"
    )
    any_worse = False
    for workload in record_a["metrics"]:
        metrics_a = record_a["metrics"][workload]
        metrics_b = record_b["metrics"].get(workload, {})
        for name in metrics_a:
            a_value = metrics_a[name]["value"]
            b_value = metrics_b.get(name, {}).get("value")
            bound, better = bounds.get(name, (None, None))
            ratio = b_value / a_value if b_value is not None and a_value else math.nan
            if bound is None or math.isnan(ratio):
                verdict = "same" if a_value == b_value else "unresolved"
            else:
                gain = ratio - 1.0 if better == "higher" else 1.0 - ratio
                verdict = (
                    "worse" if gain < -bound else "better" if gain > bound else "same"
                )
            any_worse |= verdict == "worse"
            print(
                f"{workload:<20} {name:<34} {a_value:>12.5g} "
                f"{b_value if b_value is not None else math.nan:>12.5g} "
                f"{ratio:>8.3f} {bound if bound is not None else '-':>6}  "
                f"{verdict} (base A = {a_value:.5g})"
            )
    return 1 if any_worse else 0
