"""The serving gates: one definition each, one runner, one record.

A *gate* is a serving experiment with a verdict — a storm or a
comparison that CI runs and that exits 1 when a named invariant broke.
Each gate is defined once, here: its arguments, one ``run(args)`` that
returns ``(metrics, failures)``, and one ``render(record)``. The
``repro`` CLI registers its serving subcommands from :data:`GATES`, CI
invokes those subcommands, and the reduced-scale pytest entries in
``benchmarks/bench_*.py`` call :func:`measure` — so there is no second
copy of a gate to drift.

:func:`run_gate` is the one runner: parse, run, stamp the one record
schema ::

    {benchmark, config, host, git, metrics, gates, pass}

with ``pass == (gates == [])``, print the render, write ``--output``,
print one ``GATE: ...`` line per failure on stderr, return the exit
code. ``config`` is the parsed arguments, so a record says exactly how
to reproduce itself.

The in-process gates build requests, serve them and phrase the three
invariants every serving gate asserts — zero false authentications,
every refusal typed, nothing lost — through the storm kit
(:mod:`repro.storm`); the storm report classes build their ``failures``
lists on the same phrasing and add their scenario's own.

Scenario imports are deferred into each ``run`` so that parsing and
``--help`` stay import-light.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import subprocess
import sys
import time
from collections.abc import Callable, Sequence
from pathlib import Path
from typing import Any

from repro.storm import (
    SHALLOW_DISTANCE,
    drive,
    false_authentications,
    invariant_failures,
    planted,
    search_submit,
    summarize,
    ticket_submit,
)

__all__ = [
    "GATES",
    "SCHEMA",
    "Gate",
    "gate_parser",
    "measure",
    "run_gate",
    "select_gate",
]

Record = dict[str, Any]
#: What ``run`` returns: the measurements and the invariants that broke.
Outcome = tuple[dict[str, Any], list[str]]

#: The top-level keys of every record a gate writes, in order.
SCHEMA = ("benchmark", "config", "host", "git", "metrics", "gates", "pass")


@dataclasses.dataclass(frozen=True)
class Gate:
    """One serving gate: where it lives on the CLI and its three parts."""

    #: ``record["benchmark"]``; the committed record is ``BENCH_<name>.json``.
    name: str
    #: The ``repro`` subcommand word.
    command: str
    #: Mode flags that pick this gate among its command's gates.
    flags: tuple[str, ...]
    help: str
    arguments: Callable[[argparse.ArgumentParser], None]
    run: Callable[[argparse.Namespace], Outcome]
    render: Callable[[Record], str]


# -- the runner -----------------------------------------------------------


def _host_fingerprint() -> dict[str, Any]:
    """The host a record was made on, and what its fleet hashed with."""
    import numpy as np

    from repro.hashes import compiled

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
        "os_release": platform.release(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "kernel": compiled.describe(),
    }


def _git_state() -> dict[str, Any]:
    """SHA and dirty flag of this checkout, or nulls outside a repository."""

    def git(*args: str) -> str | None:
        try:
            done = subprocess.run(
                ["git", *args],
                cwd=Path(__file__).parent,
                capture_output=True,
                text=True,
                timeout=10,
            )
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    sha = git("rev-parse", "HEAD")
    status = git("status", "--porcelain") if sha else None
    return {"sha": sha, "dirty": bool(status) if status is not None else None}


def gate_parser(gate: Gate) -> argparse.ArgumentParser:
    """The gate's own arguments plus the two every gate has."""
    parser = argparse.ArgumentParser(
        prog=" ".join(("repro", gate.command, *gate.flags)),
        description=gate.help,
    )
    gate.arguments(parser)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--output", type=Path, default=None,
                        help="write the record here (committed as "
                             f"BENCH_{gate.name}.json)")
    return parser


def _config(args: argparse.Namespace) -> dict[str, Any]:
    """The parsed arguments; a storm's flag dests are its keyword names."""
    return {k: v for k, v in vars(args).items() if k != "output"}


def _record(gate: Gate, args: argparse.Namespace) -> Record:
    metrics, failures = gate.run(args)
    return {
        "benchmark": gate.name,
        "config": _config(args),
        "host": _host_fingerprint(),
        "git": _git_state(),
        "metrics": metrics,
        "gates": failures,
        "pass": not failures,
    }


def measure(gate: Gate, argv: Sequence[str]) -> Record:
    """Run the gate on ``argv`` and return its stamped record."""
    return _record(gate, gate_parser(gate).parse_args(argv))


def run_gate(gate: Gate, argv: Sequence[str]) -> int:
    """Parse, run, print, write ``--output``; exit code 0 iff the gate held."""
    args = gate_parser(gate).parse_args(argv)
    record = _record(gate, args)
    print(gate.render(record))
    if args.output is not None:
        args.output.write_text(json.dumps(record, indent=2) + "\n")
        print(f"wrote {args.output}")
    for failure in record["gates"]:
        print(f"GATE: {failure}", file=sys.stderr)
    return 0 if record["pass"] else 1


def select_gate(argv: Sequence[str]) -> Gate | None:
    """The gate ``argv`` names: its command word and the most mode flags."""
    if not argv:
        return None
    matches = [
        gate
        for gate in GATES.values()
        if gate.command == argv[0] and set(gate.flags) <= set(argv[1:])
    ]
    return max(matches, key=lambda gate: len(gate.flags), default=None)


#: How long a gate waits, after its last submit, for every request to
#: settle before it reports the rest as lost.
_SETTLE_TIMEOUT = 300.0

# -- shared argument shapes -----------------------------------------------


def _int_tuple(text: str) -> tuple[int, ...]:
    return tuple(int(token) for token in text.split(","))


def _str_tuple(text: str) -> tuple[str, ...]:
    return tuple(t.strip() for t in text.split(",") if t.strip())


def _mixed_workload_arguments(
    parser: argparse.ArgumentParser,
    requests: int,
    depths: tuple[int, ...],
    batch_size: int,
) -> None:
    """The seeded mixed-depth fleet of :func:`repro.storm.planted`."""
    parser.add_argument("--hash", default="sha1", dest="hash_name")
    parser.add_argument("--requests", type=int, default=requests)
    parser.add_argument("--depths", type=_int_tuple, default=depths,
                        help="comma-separated search depths, cycled over the fleet")
    parser.add_argument("--batch-size", type=int, default=batch_size)


def _topology_arguments(parser: argparse.ArgumentParser) -> None:
    """:class:`repro.deploy.topology.TopologySpec` flags; dests are its fields."""
    parser.add_argument("--servers", type=int, default=1)
    parser.add_argument("--devices", type=_str_tuple, default=("host", "host"),
                        help="fleet device tokens per server")
    parser.add_argument("--engine", default="fleet", choices=("fleet", "sched"))
    parser.add_argument("--hash", default="sha1", dest="hash_name")
    parser.add_argument("--distance", type=int, default=2, dest="max_distance")
    parser.add_argument("--budget", type=float, default=5.0, dest="time_budget",
                        help="per-search time budget (protocol T)")
    parser.add_argument("--clients", type=int, default=8,
                        help="enrolled fleet size")
    parser.add_argument("--tenants", type=_str_tuple, default=(),
                        help="comma-separated tenant namespaces")
    parser.add_argument("--fsync", default="", dest="durability",
                        help="WAL fsync policy: always, interval[:secs], or "
                             "none; empty keeps the in-memory store (--crash "
                             "forces always when empty)")


def _topology(args: argparse.Namespace) -> Any:
    from repro.deploy.topology import TopologySpec

    fields = {field.name for field in dataclasses.fields(TopologySpec)}
    return TopologySpec(**{k: v for k, v in vars(args).items() if k in fields})


# -- chaos ----------------------------------------------------------------


def _chaos_arguments(parser: argparse.ArgumentParser) -> None:
    # Kept literal so parsing stays import-free; test_chaos checks that
    # every name in NAMED_PLANS parses.
    parser.add_argument("--plan", default="lossy-wan",
                        choices=("clean", "flaky-device", "lossy-wan", "smoke"),
                        help="named fault plan")
    parser.add_argument("--clients", type=int, default=None,
                        help="override the plan's fleet size")


def _chaos_run(args: argparse.Namespace) -> Outcome:
    from repro.reliability.chaos import run_named_storm

    report = run_named_storm(args.plan, seed=args.seed, clients=args.clients)
    return dataclasses.asdict(report), invariant_failures(
        false_authentications=report.false_authentications
    )


def _chaos_render(record: Record) -> str:
    from repro.analysis.metrics import ResilienceReport

    return ResilienceReport(**record["metrics"]).render()


# -- scheduler vs FIFO ----------------------------------------------------


def _scheduler_arguments(parser: argparse.ArgumentParser) -> None:
    # Acceptance scale: a mixed d=1..4 fleet with a budget short enough
    # that d=4 cannot finish on one host device — the straggler pressure
    # the scheduler exists to absorb.
    _mixed_workload_arguments(
        parser, requests=16, depths=(1, 2, 3, 4), batch_size=16384
    )
    parser.add_argument("--budget", type=float, default=3.0,
                        help="per-request time budget (protocol T)")
    parser.add_argument("--deadline", type=float, default=None,
                        help="client deadline attached to shallow requests")


def _scheduler_run(args: argparse.Namespace) -> Outcome:
    """The same seeded fleet through FIFO, then through the dispatcher."""
    from repro.engines import build_engine
    from repro.hashes.registry import get_hash

    workload = planted(
        get_hash(args.hash_name), args.requests, args.depths, args.seed,
        deadline_seconds=args.deadline,
    )
    fifo_engine = build_engine(
        "batch", hash_name=args.hash_name, batch_size=args.batch_size, cache=True
    )

    def by_class(outcomes: list[Any]) -> dict[str, Any]:
        shallow = [
            o for o in outcomes if o.request.max_distance <= SHALLOW_DISTANCE
        ]
        deep = [o for o in outcomes if o.request.max_distance > SHALLOW_DISTANCE]
        return {
            "all": summarize(outcomes),
            "shallow": summarize(shallow),
            "deep": summarize(deep),
        }

    # Every request arrives at t=0; FIFO serves them in submission order
    # on one device, so each latency includes everything queued ahead.
    fifo = by_class(
        drive(
            search_submit(fifo_engine, args.budget), workload,
            timeout=_SETTLE_TIMEOUT,
        )
    )
    sched_engine = build_engine(
        "sched", hash_name=args.hash_name, batch_size=args.batch_size
    )
    try:
        sched = by_class(
            drive(
                ticket_submit(sched_engine, args.budget), workload,
                timeout=_SETTLE_TIMEOUT,
            )
        )
        snapshot = sched_engine.scheduler.snapshot()
    finally:
        # Not drained: a lost request must end the gate, not hang it.
        sched_engine.close(drain=False)

    # A fleet with no shallow request has no tail to compare.
    fifo_p99 = fifo["shallow"].get("p99_seconds")
    sched_p99 = sched["shallow"].get("p99_seconds")
    failures = invariant_failures(
        untyped=fifo["all"]["errors"] + sched["all"]["errors"],
        lost=fifo["all"]["lost"] + sched["all"]["lost"],
    )
    if fifo_p99 is not None and sched_p99 is not None and sched_p99 > fifo_p99:
        failures.append(
            f"scheduled shallow p99 {sched_p99:.3f}s exceeds FIFO {fifo_p99:.3f}s"
        )
    metrics = {
        "fifo": fifo,
        "scheduled": sched,
        "shallow_p99_fifo_seconds": fifo_p99,
        "shallow_p99_scheduled_seconds": sched_p99,
        "shallow_p99_speedup": fifo_p99 / sched_p99 if sched_p99 else None,
        "scheduler": {
            key: snapshot[key]
            for key in (
                "batches", "shared_batches", "shed", "preempted",
                "peak_queue_depth", "batches_by_lane",
            )
        },
    }
    return metrics, failures


def _scheduler_render(record: Record) -> str:
    config, metrics = record["config"], record["metrics"]

    def row(label: str, stats: dict[str, Any]) -> str:
        if stats["count"] == 0:
            return f"    {label:<8} (no requests)"
        if "p50_seconds" not in stats:
            return f"    {label:<8} n={stats['count']:<3} (nothing served)"
        return (
            f"    {label:<8} n={stats['count']:<3} "
            f"p50={stats['p50_seconds']:.3f}s "
            f"p99={stats['p99_seconds']:.3f}s "
            f"max={stats['max_seconds']:.3f}s "
            f"found={stats['found']} timed_out={stats['timed_out']} "
            f"shed={stats['shed']}"
        )

    sched = metrics["scheduler"]
    lines = [
        "Scheduler — shallow tail latency on a mixed-depth fleet",
        f"  {config['requests']} requests, depths {list(config['depths'])}, "
        f"T={config['budget']}s, hash={config['hash_name']}, "
        f"bs={config['batch_size']}",
        "  FIFO (submission order, one device):",
        *(row(label, metrics["fifo"][label]) for label in ("shallow", "deep")),
        "  scheduled (continuous batching, EDF lanes):",
        *(row(label, metrics["scheduled"][label]) for label in ("shallow", "deep")),
        f"  scheduler: batches={sched['batches']} "
        f"shared={sched['shared_batches']} shed={sched['shed']} "
        f"preempted={sched['preempted']} "
        f"peak_queue={sched['peak_queue_depth']}",
    ]
    if metrics["shallow_p99_speedup"] is not None:
        lines.append(
            f"  shallow p99: FIFO {metrics['shallow_p99_fifo_seconds']:.3f}s -> "
            f"scheduled {metrics['shallow_p99_scheduled_seconds']:.3f}s  "
            f"({metrics['shallow_p99_speedup']:.1f}x)"
        )
    return "\n".join(lines)


# -- fleet: device-loss storm ---------------------------------------------


def _fleet_storm_arguments(parser: argparse.ArgumentParser) -> None:
    _mixed_workload_arguments(
        parser, requests=8, depths=(1, 2, 2, 3), batch_size=4096
    )
    parser.add_argument("--devices", type=_str_tuple, default=("host", "host"),
                        help="comma-separated device tokens, e.g. "
                             "host,flaky-apu; the last one is killed")
    parser.add_argument("--kill-fraction", type=float, default=0.25)
    parser.add_argument("--revive-fraction", type=float, default=0.75)


def _fleet_storm_run(args: argparse.Namespace) -> Outcome:
    from repro.fleet.storm import run_device_loss_storm

    report = run_device_loss_storm(**_config(args))
    return dataclasses.asdict(report), report.failures


def _fleet_storm_render(record: Record) -> str:
    from repro.fleet.storm import DeviceLossStormReport

    return DeviceLossStormReport(**record["metrics"]).render()


# -- fleet: scaling + hedged stragglers -----------------------------------


def _fleet_arguments(parser: argparse.ArgumentParser) -> None:
    _mixed_workload_arguments(
        parser, requests=12, depths=(1, 2, 2), batch_size=8192
    )
    parser.add_argument("--straggler-requests", type=int, default=4,
                        help="exhaustive d=2 sweeps served on host + slow-host")
    parser.add_argument("--slow-factor", type=float, default=30.0,
                        help="throttle of the straggler device")


def _serve_on_fleet(
    devices: tuple[str, ...],
    workload: list[Any],
    algo: Any,
    args: argparse.Namespace,
    **engine_kwargs: Any,
) -> dict[str, Any]:
    """Serve one workload through a fleet; latencies plus the invariants."""
    from repro.fleet import FleetSearchEngine

    engine = FleetSearchEngine(
        *devices,
        hash_name=args.hash_name,
        batch_size=args.batch_size,
        **engine_kwargs,
    )
    start = time.perf_counter()
    try:
        outcomes = drive(ticket_submit(engine), workload, timeout=_SETTLE_TIMEOUT)
        wall = time.perf_counter() - start
        snapshot = engine.scheduler.snapshot()
    finally:
        engine.close(drain=False)
    stats = summarize(outcomes)
    return {
        "devices": list(devices),
        "wall_seconds": wall,
        "resolved": stats["served"] + stats["shed"],
        "found": stats["found"],
        "shed": stats["shed"],
        "lost": stats["lost"],
        "errors": stats["errors"],
        "false_authentications": false_authentications(algo, outcomes),
        "p50_seconds": stats.get("p50_seconds"),
        "p99_seconds": stats.get("p99_seconds"),
        "throughput_rps": stats["served"] / wall if wall > 0 else 0.0,
        "hedges_launched": snapshot["hedges_launched"],
        "hedge_wins": snapshot["hedge_wins"],
        "redispatched_chunks": snapshot["redispatched_chunks"],
    }


#: The worker-scaling reading sweeps on the ladder's serving geometry,
#: whatever the gate's own ``--hash`` / ``--batch-size``: the planted
#: workload above is dispatcher-bound (SHA-1 at 4 096 rows reads 1.0-1.3x
#: however many cores hash), so a floor on it would gate the dispatcher,
#: not the workers.
_WORKER_SCALING_HASH = "sha3-256"
_WORKER_SCALING_BATCH = 16384
_WORKER_SCALING_FLOOR = 1.3
#: Sweeps per side: this many, and on while the reading is under the
#: floor — a shared host can hold one CPU at half speed for seconds, which
#: a split batch waits for and one unsplit thread does not — up to the cap.
_WORKER_SCALING_SWEEPS = 12
_WORKER_SCALING_MAX_SWEEPS = 60


def _worker_scaling(seed: int) -> dict[str, Any]:
    """One ``host`` device on one core vs on the cpuset: alternating
    exhaustive d=2 sweeps (absent target) on two warm engines, each
    side's quiet-most sweep. The ratio is ``None`` where there is
    nothing to compare: a one-CPU cpuset, or no compiled kernel for the
    hash (``hashlib`` holds the interpreter lock, so the scan threads
    share one core)."""
    import numpy as np

    from repro.fleet import FleetSearchEngine
    from repro.fleet.batcher import default_worker_count
    from repro.hashes import compiled

    cores = default_worker_count()
    kernel = compiled.load()
    skipped: str | None = None
    if cores == 1:
        skipped = "one-CPU cpuset"
    elif kernel is None or _WORKER_SCALING_HASH not in kernel.hashes:
        skipped = "no compiled kernel"
    found = 0
    quiet: dict[int, float] = {}
    if skipped is None:
        base_seed = np.random.default_rng(seed).bytes(32)
        engines = {
            workers: FleetSearchEngine(
                "host",
                hash_name=_WORKER_SCALING_HASH,
                batch_size=_WORKER_SCALING_BATCH,
                workers=workers,
            )
            for workers in (1, cores)
        }
        try:
            absent = engines[1].algo.hash_seed(b"\xa5" * 32)
            # The first sweep of each side is the warm-up, not a reading.
            for sweep in range(1 + _WORKER_SCALING_MAX_SWEEPS):
                for workers, engine in engines.items():
                    start = time.perf_counter()
                    found += engine.search(base_seed, absent, 2).found
                    seconds = time.perf_counter() - start
                    if sweep:
                        quiet[workers] = min(seconds, quiet.get(workers, seconds))
                if (
                    sweep >= _WORKER_SCALING_SWEEPS
                    and quiet[1] / quiet[cores] >= _WORKER_SCALING_FLOOR
                ):
                    break
        finally:
            for engine in engines.values():
                engine.close(drain=False)
    return {
        "cores": cores,
        "hash_name": _WORKER_SCALING_HASH,
        "batch_size": _WORKER_SCALING_BATCH,
        "skipped": skipped,
        "sweeps": sweep if quiet else 0,
        "one_core_seconds": quiet.get(1),
        "all_cores_seconds": quiet.get(cores),
        "ratio": quiet[1] / quiet[cores] if quiet else None,
        "false_authentications": found,
    }


def _fleet_run(args: argparse.Namespace) -> Outcome:
    """One vs two devices on a planted workload, hedging off vs on, then
    one core vs the cpuset."""
    from repro.hashes.registry import get_hash

    algo = get_hash(args.hash_name)
    workload = planted(algo, args.requests, args.depths, args.seed)
    # One discarded pass first, so that both timed sections below run
    # warm instead of the first one paying the process's first-use
    # costs (which once read as a 1.3-1.6x two-device "speed-up").
    _serve_on_fleet(("host",), workload, algo, args)
    single = _serve_on_fleet(("host",), workload, algo, args)
    dual = _serve_on_fleet(("host", "host"), workload, algo, args)
    ratio = (
        dual["throughput_rps"] / single["throughput_rps"]
        if single["throughput_rps"] > 0
        else None
    )

    # Absent targets: the full d=2 shell must be swept, so per-request
    # latency is the straggler story, not where the seed was planted.
    absent = algo.hash_seed(b"\xa5" * 32)
    stragglers = [
        dataclasses.replace(request, digest=absent)
        for request in planted(
            algo, args.straggler_requests, (2,), args.seed + 1
        )
    ]
    slow = ("host", "slow-host")
    unhedged = _serve_on_fleet(
        slow, stragglers, algo, args,
        slow_factor=args.slow_factor,
        hedge_factor=0.0,  # disables hedging
    )
    hedged = _serve_on_fleet(
        slow, stragglers, algo, args,
        slow_factor=args.slow_factor,
        hedge_factor=1.0,
        hedge_min_seconds=0.02,
    )

    worker_scaling = _worker_scaling(args.seed)
    sections = (single, dual, unhedged, hedged)
    metrics = {
        "single_device": single,
        "dual_device": dual,
        "scaling_ratio": ratio,
        "unhedged": unhedged,
        "hedged": hedged,
        "worker_scaling": worker_scaling,
        "worker_scaling_ratio": worker_scaling["ratio"],
        "lost_requests": sum(s["lost"] for s in sections),
        "false_authentications": sum(
            s["false_authentications"] for s in sections
        )
        + worker_scaling["false_authentications"],
    }
    failures = invariant_failures(
        false_authentications=metrics["false_authentications"],
        untyped=[kind for s in sections for kind in s["errors"]],
        lost=metrics["lost_requests"],
    )
    # ``scaling_ratio`` is recorded, not gated: both devices hash on the
    # one worker set, so warm it reads 1.0x by construction, and over a
    # 70 ms section run-to-run noise is +-0.15x. Cores are the gate.
    worker_ratio = worker_scaling["ratio"]
    if worker_ratio is not None and worker_ratio < _WORKER_SCALING_FLOOR:
        failures.append(
            f"{worker_scaling['cores']} cores sweep {worker_ratio:.2f}x as "
            f"fast as one (floor {_WORKER_SCALING_FLOOR}x)"
        )
    if not hedged["hedges_launched"]:
        failures.append("no hedge was launched on the straggler fleet")
    if None in (hedged["p99_seconds"], unhedged["p99_seconds"]):
        failures.append("a straggler run resolved nothing")
    elif hedged["p99_seconds"] > unhedged["p99_seconds"]:
        failures.append(
            f"hedged straggler p99 {hedged['p99_seconds']:.3f}s exceeds "
            f"unhedged {unhedged['p99_seconds']:.3f}s"
        )
    return metrics, failures


def _fleet_render(record: Record) -> str:
    config, metrics = record["config"], record["metrics"]

    def seconds(value: float | None) -> str:
        return f"{value:.3f}s" if value is not None else "n/a"

    def row(label: str, section: dict[str, Any]) -> str:
        return (
            f"    {label:<10} devices={','.join(section['devices']):<16} "
            f"wall={section['wall_seconds']:.2f}s "
            f"p99={seconds(section['p99_seconds'])} "
            f"found={section['found']} shed={section['shed']} "
            f"lost={section['lost']} false={section['false_authentications']} "
            f"hedges={section['hedges_launched']}"
        )

    ratio = metrics["scaling_ratio"]
    hedged = metrics["hedged"]
    scaling = metrics["worker_scaling"]
    if scaling["ratio"] is None:
        workers_line = f"  scan-thread scaling: n/a ({scaling['skipped']})"
    else:
        workers_line = (
            f"  scan-thread scaling (quiet-most of {scaling['sweeps']} exhaustive "
            f"d=2 sweeps, {scaling['hash_name']}, "
            f"bs={scaling['batch_size']}): 1 core "
            f"{scaling['one_core_seconds']:.3f}s -> {scaling['cores']} cores "
            f"{scaling['all_cores_seconds']:.3f}s ({scaling['ratio']:.2f}x)"
        )
    return "\n".join([
        "Fleet — multi-device scaling and hedged-straggler p99",
        f"  {config['requests']} requests, depths {list(config['depths'])}, "
        f"hash={config['hash_name']}, bs={config['batch_size']}",
        "  scaling (same planted workload):",
        row("1 device", metrics["single_device"]),
        row("2 devices", metrics["dual_device"]),
        "    throughput ratio (2 dev / 1 dev): "
        + (f"{ratio:.2f}x" if ratio is not None else "n/a"),
        f"  hedging ({config['straggler_requests']} exhaustive d=2 sweeps "
        f"on host + slow-host, x{config['slow_factor']:g} throttle):",
        row("unhedged", metrics["unhedged"]),
        row("hedged", hedged),
        f"    straggler p99: {seconds(metrics['unhedged']['p99_seconds'])} -> "
        f"{seconds(hedged['p99_seconds'])} "
        f"({hedged['hedges_launched']} hedges, {hedged['hedge_wins']} wins)",
        workers_line,
        f"  lost={metrics['lost_requests']} "
        f"false_auths={metrics['false_authentications']} "
        f"verdict: {'PASS' if record['pass'] else 'FAIL'}",
    ])


# -- directory: shard-loss storm ------------------------------------------


def _directory_storm_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--clients", type=int, default=24)
    parser.add_argument("--shards", type=int, default=8)
    parser.add_argument("--replication", type=int, default=2)
    parser.add_argument("--shed-ceiling", type=float, default=0.5,
                        help="max tolerated overall shed rate across the "
                             "storm's four waves")


def _directory_storm_run(args: argparse.Namespace) -> Outcome:
    from repro.directory.storm import run_shard_loss_storm

    report = run_shard_loss_storm(**_config(args))
    return dataclasses.asdict(report), report.failures


def _directory_storm_render(record: Record) -> str:
    from repro.directory.storm import ShardLossStormReport

    return ShardLossStormReport(**record["metrics"]).render()


# -- directory: hot cache + availability ----------------------------------

#: Keys read cold, then hot, for the latency comparison.
_LATENCY_SAMPLE = 64


def _directory_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--clients", type=int, default=512)
    parser.add_argument("--shards", type=int, default=8)
    parser.add_argument("--replication", type=int, default=2)
    parser.add_argument("--cache-capacity", type=int, default=128,
                        help="hot entries per shard")
    parser.add_argument("--rounds", type=int, default=10,
                        help="working-set sweeps; the first warms the caches")
    parser.add_argument("--churn-per-round", type=int, default=8,
                        help="clients re-enrolled before each steady-state sweep")


def _directory_latency(directory: Any, sample: list[str]) -> dict[str, Any]:
    """Cold quorum-read latency vs hot-cache hit latency, same keys."""
    import numpy as np

    from repro.analysis.metrics import percentile

    def sweep(expect_hot: bool) -> list[float]:
        seconds = []
        for client_id in sample:
            start = time.perf_counter()
            _mask, stats = directory.lookup_with_stats(client_id)
            seconds.append(time.perf_counter() - start)
            if bool(stats.hot_hit) != expect_hot:
                raise RuntimeError(
                    f"{client_id}: hot_hit={stats.hot_hit} on the "
                    f"{'hot' if expect_hot else 'cold'} sweep"
                )
        return seconds

    directory.drop_hot_caches()
    cold = sweep(expect_hot=False)
    hot = sweep(expect_hot=True)
    return {
        "sample": len(sample),
        "cold_mean_us": float(np.mean(cold) * 1e6),
        "cold_p99_us": float(percentile(cold, 99.0) * 1e6),
        "hot_mean_us": float(np.mean(hot) * 1e6),
        "hot_p99_us": float(percentile(hot, 99.0) * 1e6),
        "speedup": float(np.mean(cold) / np.mean(hot)),
    }


def _directory_steady_state(
    directory: Any, client_ids: list[str], rounds: int, churn: int, rng: Any
) -> dict[str, Any]:
    """Hit rate over repeated working-set rounds with enrollment churn.

    Round 0 warms the caches and is excluded from the steady-state rate;
    every later round re-enrolls ``churn`` random clients first
    (invalidating their cached entry — a miss the cache must re-absorb).
    """
    directory.drop_hot_caches()
    hits = lookups = 0
    for round_index in range(rounds):
        if round_index > 0 and churn:
            for client_id in rng.choice(client_ids, size=churn, replace=False):
                directory.enroll(
                    str(client_id), directory.lookup(str(client_id))
                )
        for client_id in client_ids:
            _mask, stats = directory.lookup_with_stats(client_id)
            if round_index > 0:
                lookups += 1
                hits += 1 if stats.hot_hit else 0
    return {
        "rounds": rounds,
        "churn_per_round": churn,
        "steady_lookups": lookups,
        "steady_hits": hits,
        "hit_rate": hits / lookups if lookups else 0.0,
    }


def _directory_sweep(directory: Any, client_ids: list[str]) -> dict[str, Any]:
    """One full lookup sweep: served, typed-unavailable, and unhandled."""
    from repro.directory import DirectoryUnavailable

    served = unavailable = 0
    errors: list[str] = []
    for client_id in client_ids:
        try:
            directory.lookup(client_id)
            served += 1
        except DirectoryUnavailable:
            unavailable += 1
        except Exception as exc:
            errors.append(type(exc).__name__)
    return {
        "served": served,
        "unavailable": unavailable,
        "errors": errors,
        "availability": served / len(client_ids),
    }


def _directory_availability(
    directory: Any, client_ids: list[str]
) -> dict[str, Any]:
    """Kill one shard, then its replica partner, then revive both."""
    from repro.directory.storm import _pick_victims, shard_loss_schedule

    victim, partner, doomed = _pick_victims(directory, client_ids)
    sweeps = {}
    for name in shard_loss_schedule(directory, victim, partner):
        failovers_before = directory.failovers
        sweeps[name] = _directory_sweep(directory, client_ids)
        if name == "1-shard-down":
            sweeps[name]["failovers"] = directory.failovers - failovers_before
        elif name == "replica-set-down":
            repairs_before = directory.read_repairs
    sweeps["recovered"]["read_repairs"] = directory.read_repairs - repairs_before
    return {
        "victim": victim,
        "partner": partner,
        "doomed_keys": len(doomed),
        "one_shard_down": sweeps["1-shard-down"],
        "replica_set_down": sweeps["replica-set-down"],
        "recovered": sweeps["recovered"],
    }


def _directory_run(args: argparse.Namespace) -> Outcome:
    """Cache latency, steady-state hit rate, then the shard-loss sweeps."""
    import numpy as np

    from repro.directory import ShardedEnrollmentDirectory
    from repro.puf.ternary import TernaryMask

    rng = np.random.default_rng(args.seed)
    directory = ShardedEnrollmentDirectory(
        master_key=b"bench-master-k!!",
        shards=args.shards,
        replication=args.replication,
        cache_capacity=args.cache_capacity,
    )
    cells = 512
    client_ids = [f"client-{index:05d}" for index in range(args.clients)]
    masks = {
        client_id: TernaryMask(
            address=0,
            usable=rng.random(cells) > 0.03,
            reference=rng.random(cells) > 0.5,
            instability=np.zeros(cells),
        )
        for client_id in client_ids
    }
    for client_id in client_ids:
        directory.enroll(client_id, masks[client_id])

    start = time.perf_counter()
    latency = _directory_latency(directory, client_ids[:_LATENCY_SAMPLE])
    steady = _directory_steady_state(
        directory, client_ids, args.rounds, args.churn_per_round, rng
    )
    availability = _directory_availability(directory, client_ids)
    metrics = {
        "latency": latency,
        "steady_state": steady,
        "availability": availability,
        "wall_seconds": time.perf_counter() - start,
        "directory": {
            key: value
            for key, value in directory.snapshot().items()
            if key != "shards_detail"
        },
    }

    one_down = availability["one_shard_down"]
    two_down = availability["replica_set_down"]
    recovered = availability["recovered"]
    failures = invariant_failures(
        untyped=one_down["errors"] + two_down["errors"] + recovered["errors"]
    )
    if steady["hit_rate"] < 0.9:
        failures.append(
            f"steady-state hit rate {steady['hit_rate']:.1%} below 90%"
        )
    if latency["speedup"] <= 1.0:
        failures.append(
            "a hot hit is not cheaper than the cold quorum read "
            f"({latency['speedup']:.2f}x)"
        )
    if one_down["availability"] != 1.0:
        failures.append(
            f"one shard down: availability {one_down['availability']:.1%}, "
            "every key has a live replica"
        )
    if not one_down["failovers"]:
        failures.append("one shard down: no read failed over to a replica")
    if two_down["unavailable"] != availability["doomed_keys"]:
        failures.append(
            f"replica set down: {two_down['unavailable']} typed unavailable, "
            f"expected exactly the {availability['doomed_keys']} doomed key(s)"
        )
    if recovered["availability"] != 1.0:
        failures.append(
            f"after revival: availability {recovered['availability']:.1%}"
        )
    return metrics, failures


def _directory_render(record: Record) -> str:
    config, metrics = record["config"], record["metrics"]
    latency = metrics["latency"]
    steady = metrics["steady_state"]
    availability = metrics["availability"]
    one_down = availability["one_shard_down"]
    two_down = availability["replica_set_down"]
    recovered = availability["recovered"]
    return "\n".join([
        "Directory — hot-cache latency and availability under shard loss",
        f"  {config['clients']} clients over {config['shards']} shards, "
        f"r={config['replication']}, cache={config['cache_capacity']}/shard",
        f"  latency (n={latency['sample']}): "
        f"cold quorum read {latency['cold_mean_us']:.0f}us "
        f"(p99 {latency['cold_p99_us']:.0f}us) -> hot hit "
        f"{latency['hot_mean_us']:.0f}us "
        f"(p99 {latency['hot_p99_us']:.0f}us), "
        f"{latency['speedup']:.1f}x",
        f"  steady state ({steady['rounds']} rounds, "
        f"{steady['churn_per_round']} re-enrolls/round): "
        f"hit rate {steady['hit_rate']:.1%} "
        f"({steady['steady_hits']}/{steady['steady_lookups']})",
        f"  1-of-N loss ({availability['victim']}): "
        f"availability {one_down['availability']:.1%}, "
        f"{one_down['failovers']} failovers, "
        f"{len(one_down['errors'])} errors",
        f"  replica-set loss (+{availability['partner']}): "
        f"availability {two_down['availability']:.1%}, "
        f"{two_down['unavailable']} typed unavailable "
        f"(= {availability['doomed_keys']} doomed keys), "
        f"{len(two_down['errors'])} errors",
        f"  recovered: availability {recovered['availability']:.1%}, "
        f"{recovered['read_repairs']} read repairs, "
        f"{len(recovered['errors'])} errors",
        f"  wall: {metrics['wall_seconds']:.2f}s  "
        f"verdict: {'PASS' if record['pass'] else 'FAIL'}",
    ])


# -- tenants: noisy neighbor ----------------------------------------------


def _tenancy_arguments(parser: argparse.ArgumentParser) -> None:
    # Acceptance scale: an 8-client victim fleet against a 20-request
    # aggressor burst on a 1-token/s bucket.
    parser.add_argument("--hash", default="sha1", dest="hash_name")
    parser.add_argument("--victims", type=int, default=8,
                        help="victim fleet size (requests)")
    parser.add_argument("--aggressors", type=int, default=20,
                        help="aggressor burst size (requests)")
    parser.add_argument("--aggressor-rate", type=float, default=1.0,
                        help="aggressor token-bucket refill (lookups/second)")
    parser.add_argument("--aggressor-burst", type=float, default=1.0,
                        help="aggressor token-bucket capacity")
    parser.add_argument("--ratio-limit", type=float, default=1.25,
                        help="allowed victim p99 degradation under the storm")


def _tenancy_run(args: argparse.Namespace) -> Outcome:
    from repro.tenancy.workload import isolation_failures, run_noisy_neighbor

    config = _config(args)
    ratio_limit = config.pop("ratio_limit")
    metrics = run_noisy_neighbor(**config)
    return metrics, isolation_failures(metrics, ratio_limit=ratio_limit)


def _tenancy_render(record: Record) -> str:
    from repro.tenancy.workload import AGGRESSOR_TENANT, VICTIM_TENANT

    config, metrics = record["config"], record["metrics"]

    def row(phase: str, tenant: str) -> str:
        stats = metrics[phase].get(tenant)
        if stats is None:
            return f"    {phase:<12} {tenant:<10} (absent)"
        tail = (
            f"p50={stats['p50_seconds']:.3f}s p99={stats['p99_seconds']:.3f}s"
            if stats["served"]
            else "(nothing served)"
        )
        return (
            f"    {phase:<12} {tenant:<10} n={stats['count']:<3} "
            f"served={stats['served']:<3} shed={stats['shed']:<3} {tail}"
        )

    ratio = metrics["victim_p99_ratio"]
    return "\n".join([
        "Tenancy — noisy-neighbor isolation under per-tenant quotas",
        f"  {config['victims']} victim + {config['aggressors']} aggressor "
        f"requests, aggressor bucket {config['aggressor_rate']}/s "
        f"burst={config['aggressor_burst']}, hash={config['hash_name']}",
        row("baseline", VICTIM_TENANT),
        row("storm", VICTIM_TENANT),
        row("storm", AGGRESSOR_TENANT),
        row("unprotected", VICTIM_TENANT),
        f"  aggressor: {metrics['aggressor_admitted']} admitted, "
        f"{metrics['aggressor_shed']} shed {metrics['aggressor_shed_reasons']}",
        f"  victim p99: baseline {metrics['victim_p99_baseline_seconds']:.3f}s"
        f" -> storm {metrics['victim_p99_storm_seconds']:.3f}s"
        + (f"  ({ratio:.2f}x)" if ratio is not None else "")
        + f"; unprotected {metrics['victim_p99_unprotected_seconds']:.3f}s",
    ])


# -- deploy: WAN-profile storm over real processes ------------------------


def _deployment_arguments(parser: argparse.ArgumentParser) -> None:
    _topology_arguments(parser)
    parser.add_argument("--profiles", type=_str_tuple,
                        default=("lan", "wan", "lossy-wan"),
                        help="comma-separated WAN profiles")
    parser.add_argument("--requests", type=int, default=36,
                        help="requests per profile")
    parser.add_argument("--duration", type=float, default=6.0,
                        help="trace window in seconds")
    parser.add_argument("--loadgens", type=int, default=2,
                        help="load-generator processes")
    parser.add_argument("--time-scale", type=float, default=1.0,
                        help="compress (<1) or stretch (>1) arrivals")


def _deployment_run(args: argparse.Namespace) -> Outcome:
    from repro.deploy.storm import run_deployment_storm

    report = run_deployment_storm(
        _topology(args),
        profiles=args.profiles,
        seed=args.seed,
        requests=args.requests,
        duration_seconds=args.duration,
        num_loadgens=args.loadgens,
        time_scale=args.time_scale,
        log=print,
    )
    return dataclasses.asdict(report), report.failures


def _deployment_render(record: Record) -> str:
    config, metrics = record["config"], record["metrics"]
    lines = [
        f"deployment storm: {metrics['topology']}",
        f"  {config['requests']} requests over {config['duration']:g}s "
        f"x{config['loadgens']} loadgen(s) per profile",
    ]
    for profile in metrics["profiles"]:
        outcomes = ", ".join(f"{k}={v}" for k, v in profile["outcomes"].items())
        lines.append(
            f"  [{profile['profile']}] {outcomes}\n"
            f"    p50={profile['latency_p50_ms']:.1f}ms "
            f"p99={profile['latency_p99_ms']:.1f}ms "
            f"throughput={profile['throughput_rps']:.2f}req/s "
            f"false_auths={profile['false_authentications']} "
            f"drained={profile['drained']}"
        )
    lines.append(f"  verdict: {'PASS' if record['pass'] else 'FAIL'}")
    return "\n".join(lines)


# -- deploy: kill-9 crash-restart storm -----------------------------------


def _recovery_arguments(parser: argparse.ArgumentParser) -> None:
    _topology_arguments(parser)
    parser.add_argument("--crashes", type=int, default=3, help="kill-9 rounds")
    parser.add_argument("--max-restarts", type=int, default=8,
                        help="supervisor restart budget")


def _recovery_run(args: argparse.Namespace) -> Outcome:
    from repro.deploy.storm import run_crash_storm
    from repro.deploy.supervisor import RestartPolicy

    report = run_crash_storm(
        _topology(args),
        seed=args.seed,
        crashes=args.crashes,
        restart_policy=RestartPolicy(
            max_restarts=args.max_restarts, seed=args.seed
        ),
        log=print,
    )
    metrics = dataclasses.asdict(report)
    return metrics, metrics.pop("failures")


def _recovery_render(record: Record) -> str:
    metrics = record["metrics"]
    lines = [f"crash-restart storm: {metrics['topology']}"]
    for entry in metrics["rounds"]:
        lines.append(
            f"  round {entry['round_index']}: {entry['victim']} killed after "
            f"{entry['acked_before_kill']} ack(s), recovered "
            f"{entry['recovered_records']} record(s) in "
            f"{entry['recovery_seconds'] * 1000:.1f}ms, "
            f"lost {entry['lost_acknowledged']}"
        )
    lines += [
        f"  acked={metrics['acknowledged_total']} "
        f"lost={metrics['lost_acknowledged']} "
        f"nonce_reuse={metrics['nonce_reuse_trips']} "
        f"false_auths={metrics['false_authentications']} "
        f"restarts={metrics['restarts']} "
        f"backoff={metrics['backoff_seconds']:.2f}s "
        f"drained={metrics['drained']}",
        f"  durable={metrics['durable_enroll_rps']:.1f} enroll/s "
        f"lossy={metrics['lossy_enroll_rps']:.1f} enroll/s "
        f"fsync_cost={metrics['durability_overhead_pct']:+.1f}%",
        f"  verdict: {'PASS' if record['pass'] else 'FAIL'}",
    ]
    return "\n".join(lines)


# -- the table ------------------------------------------------------------

GATES: dict[str, Gate] = {
    gate.name: gate
    for gate in (
        Gate(
            "chaos", "chaos", (),
            "fault-injected authentication storm under a named plan (exit 1 "
            "on any false authentication)",
            _chaos_arguments, _chaos_run, _chaos_render,
        ),
        Gate(
            "scheduler", "sched", (),
            "FIFO vs the deadline-aware dispatcher on one mixed-depth fleet "
            "(exit 1 if the scheduled shallow p99 exceeds FIFO's)",
            _scheduler_arguments, _scheduler_run, _scheduler_render,
        ),
        Gate(
            "fleet_storm", "fleet", ("--storm",),
            "device-loss storm: kill a fleet device mid-run, revive it (exit "
            "1 on a lost request, false auth, byte mismatch vs the "
            "single-device run, or missing re-dispatch)",
            _fleet_storm_arguments, _fleet_storm_run, _fleet_storm_render,
        ),
        Gate(
            "fleet", "fleet", ("--bench",),
            "two-device and scan-thread scaling, hedged vs unhedged "
            "straggler p99 (exit 1 on a lost request, false auth, scaling or "
            "hedging regression)",
            _fleet_arguments, _fleet_run, _fleet_render,
        ),
        Gate(
            "directory_storm", "directory", ("--storm",),
            "shard-loss storm: kill one enrollment shard, then its replica "
            "partner, then revive both (exit 1 on a false auth, an untyped "
            "or unexpected shed, or an unhealed replica)",
            _directory_storm_arguments, _directory_storm_run,
            _directory_storm_render,
        ),
        Gate(
            "directory", "directory", ("--bench",),
            "hot-cache hit rate and latency, and availability under shard "
            "loss, on synthetic enrollment images",
            _directory_arguments, _directory_run, _directory_render,
        ),
        Gate(
            "tenancy", "tenants", (),
            "noisy-neighbor storm: per-tenant quotas vs an aggressor burst "
            "(exit 1 if the victim's tail degrades or a shed is mistyped)",
            _tenancy_arguments, _tenancy_run, _tenancy_render,
        ),
        Gate(
            "deployment", "deploy", ("--storm",),
            "multi-process deployment storm: real server/loadgen processes "
            "over TCP under emulated WAN profiles (exit 1 on any false auth, "
            "untyped failure, or unclean drain)",
            _deployment_arguments, _deployment_run, _deployment_render,
        ),
        Gate(
            "recovery", "deploy", ("--storm", "--crash"),
            "kill-9 crash-restart storm: SIGKILL a WAL-backed server "
            "mid-enrollment burst, restart it (exit 1 on acknowledged loss, "
            "nonce reuse, a false auth, or an unclean drain)",
            _recovery_arguments, _recovery_run, _recovery_render,
        ),
    )
}
