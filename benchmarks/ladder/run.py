#!/usr/bin/env python3
"""benchmarks/ladder: the repository's benchmark.

    python benchmarks/ladder/run.py --seed S            # all four workloads
    python benchmarks/ladder/run.py --seed S --trace    # the traced run
    python benchmarks/ladder/run.py --workload W --seed S --seconds N --trace 0|1
    python benchmarks/ladder/run.py --compare A.json B.json

See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

_REPO = Path(__file__).resolve().parents[2]
if not (_REPO / "src" / "repro").is_dir():
    sys.exit("benchmarks/ladder measures the package in src/repro, which is not here")
sys.path.insert(0, str(_REPO / "src"))

import reaper  # noqa: E402

if __name__ == "__main__" and not os.environ.get(reaper.INNER):
    # The command line runs the benchmark in a child and ends only once
    # every process that child started has (see reaper.py).
    sys.exit(reaper.supervise(__file__, sys.argv[1:]))

import probes  # noqa: E402
import record  # noqa: E402
import rig  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

#: One measured window, seconds; BENCHMARK.json's ``run_seconds``.
DEFAULT_SECONDS = 25.0
SMOKE_SECONDS = 3.0
SWEEP_RATES = (2.0, 4.0, 6.0, 8.0)
SWEEP_SECONDS = 10.0


def measure(workload: str, seed: int, seconds: float, trace: bool, smoke: bool):
    """One run of one workload: (measurement, metrics by name, tracer).

    Untraced, the metrics are the end-to-end ones. Traced, they are the
    per-layer ones: a shorter window with client-side spans, then the
    ladder against the same server, then the in-process probes.
    """
    tracer = Tracer(trace)
    if not trace:
        setups = 1 if smoke else workloads.SETUP_REPEATS
        m = workloads.run(workload, seed, seconds, tracer, setups)
        return m, record.end_to_end(m), tracer
    layers: dict[str, float] = {}
    clean: list[int] = []

    def ladder(client, slots, first_request):
        clean.extend(slots)
        layers.update(probes.ladder(client, slots, first_request, smoke))

    m = workloads.run(
        workload,
        seed,
        seconds * workloads.TRACED_WINDOW_SHARE,
        tracer,
        setups=1,
        ladder=ladder,
    )
    # The server is gone by now, so the probes have the cores to themselves.
    layers.update(probes.in_process(seed, seconds, clean, smoke))
    layers.update(record.window_layers(m))
    return m, layers, tracer


def _print_metrics(metrics: dict[str, float], indent: str = "  ") -> None:
    for name, metric in record.with_units(metrics).items():
        print(f"{indent}{name:<34} {metric['value']:>14.6g} {metric['unit']}")


def report(workload, seed, seconds, trace, m, metrics) -> None:
    print(
        f"== {workload}  seed {seed}  window {m.window.seconds:.1f} s "
        f"(asked {seconds:g})  trace {'on' if trace else 'off'} =="
    )
    print(
        f"  attempted {len(m.ops)}  succeeded {len(m.ops) - m.failed}  "
        f"failed {m.failed}  ({len(m.window.latencies)} {m.primary} latencies "
        f"behind the latency metrics)"
    )
    for name, passed in m.checks.items():
        print(f"  check {name}: {'ok' if passed else 'FAILED'}")
    for detail in sorted({op.detail for op in m.ops if not op.ok}):
        print(f"  failure: {detail}")
    _print_metrics(metrics)
    if trace:
        for line in probes.budget_lines(metrics):
            print("  " + line)
    else:
        print("  diagnostics (not gated):")
        _print_metrics(record.diagnostics(m), indent="    ")


def contract_line(m, metrics) -> str:
    """The last line of a single-workload run, as the driver reads it."""
    return json.dumps(
        {
            "correct": m.correct,
            "attempted": len(m.ops),
            "failed": m.failed,
            "metrics": record.with_units(metrics),
        }
    )


def run_all(seed: int, seconds: float, trace: bool, smoke: bool, out: Path) -> bool:
    """The one command: every workload, one record; True iff all correct."""
    doc = {
        "config": {
            "seed": seed,
            "seconds": seconds,
            "trace": trace,
            "smoke": smoke,
            "fleet_seed": rig.FLEET_SEED,
            "topology": rig.TOPOLOGY.describe(),
            "open_loop_rate_rps": workloads.OPEN_LOOP_RATE,
            "open_loop_in_flight": workloads.OPEN_LOOP_IN_FLIGHT,
            "latency_limit_s": workloads.LATENCY_LIMIT_S,
            "search_engine": workloads.SEARCH_ENGINE,
            "search_rank": workloads.SEARCH_RANK,
            "setup_repeats": 1 if smoke or trace else workloads.SETUP_REPEATS,
        },
        "host": record.host_fingerprint(),
        "git": record.git_state(),
        "workloads": {},
        "metrics": {},
        "counts": {},
        "pass": True,
    }
    spans = []
    why = {w["name"]: w["why"] for w in record.declared()["workloads"]}
    for workload in workloads.WORKLOADS:
        m, metrics, tracer = measure(workload, seed, seconds, trace, smoke)
        report(workload, seed, seconds, trace, m, metrics)
        doc["workloads"][workload] = {
            "why": why[workload],
            "inputs": m.window.inputs,
            "window_s": m.window.seconds,
            "checks": m.checks,
        }
        doc["metrics"][workload] = record.with_units(
            {**metrics, **record.diagnostics(m)}
        )
        doc["counts"][workload] = {
            "attempted": len(m.ops),
            "succeeded": len(m.ops) - m.failed,
            "failed": m.failed,
        }
        doc["pass"] = doc["pass"] and m.correct
        spans += [{"workload": workload, **vars(span)} for span in tracer.spans]
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=1)
    print(f"record: {out}")
    if trace:
        trace_path = out.with_name("trace.json")
        with open(trace_path, "w", encoding="utf-8") as handle:
            json.dump(spans, handle)
        print(f"spans:  {trace_path} ({len(spans)})")
    print("PASS" if doc["pass"] else "FAIL")
    return doc["pass"]


def run_sweep(seed: int) -> None:
    """Diagnostic, outside the timed contract runs: latency at a few rates."""
    results = workloads.sweep(seed, SWEEP_SECONDS, SWEEP_RATES)
    best = 0.0
    for rate, m in results.items():
        metrics = record.diagnostics(m)
        p90 = metrics["client.latency_p90_ms"]
        print(
            f"  {rate:g} req/s: p50 {metrics['client.latency_p50_ms']:.0f} ms  "
            f"p90 {p90:.0f} ms  within {workloads.LATENCY_LIMIT_S * 1e3:.0f} ms "
            f"{metrics['client.within_limit_share']:.3f}  failed {m.failed}"
        )
        if m.failed == 0 and p90 <= workloads.LATENCY_LIMIT_S * 1e3:
            best = max(best, rate)
    print(f"  bench.max_rate_within_limit_rps {best:g} 1/s")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", "--duration", type=float, default=None,
        help=f"length of every measured window (default {DEFAULT_SECONDS:g})",
    )
    parser.add_argument(
        "--trace", nargs="?", type=int, choices=(0, 1), const=1, default=0,
        help="make the traced run, which gives the per-layer metrics",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help=f"{SMOKE_SECONDS:g} s windows, one set-up: the self-test's run",
    )
    parser.add_argument("--out", type=Path, help="where the record is written")
    parser.add_argument(
        "--sweep", action="store_true",
        help="diagnostic: auth_mixed_open at 2/4/6/8 req/s, 10 s each",
    )
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)

    if args.compare:
        return record.compare(*args.compare)
    if args.sweep:
        run_sweep(args.seed)
        return 0
    seconds = args.seconds or (SMOKE_SECONDS if args.smoke else DEFAULT_SECONDS)
    if seconds <= 0:
        parser.error("--seconds must be positive")
    trace = bool(args.trace)
    started = time.perf_counter()
    try:
        return _run(args, seconds, trace, started)
    except rig.RigError as exc:
        # No result line: a rig that could not be set up measured nothing.
        print(f"set-up failed: {exc}", file=sys.stderr)
        return 2


def _run(args, seconds: float, trace: bool, started: float) -> int:
    if args.workload is None:
        out = args.out or rig.SCRATCH / ("record-traced.json" if trace else "record.json")
        passed = run_all(args.seed, seconds, trace, args.smoke, out)
        print(f"total {time.perf_counter() - started:.0f} s")
        return 0 if passed else 1
    m, metrics, tracer = measure(args.workload, args.seed, seconds, trace, args.smoke)
    report(args.workload, args.seed, seconds, trace, m, metrics)
    if trace and args.out:
        tracer.write(args.out)
    print(contract_line(m, metrics))
    return 0 if m.correct else 1


if __name__ == "__main__":
    sys.exit(main())
