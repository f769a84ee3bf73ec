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
    drive,
    false_authentications,
    invariant_failures,
    planted,
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


def _tree_digest(root: Path = Path(__file__).parent) -> str:
    """SHA-256 over the sorted ``(relative path, bytes)`` of every file
    under ``root`` (the ``repro`` package), bytecode caches left out."""
    from repro.hashes import native

    files = sorted(
        (path.relative_to(root).as_posix(), path)
        for path in root.rglob("*")
        if path.is_file() and "__pycache__" not in path.parts
    )
    # Each field length-prefixed, so no two trees share a byte stream.
    stream = b"".join(
        len(field).to_bytes(8, "big") + field
        for name, path in files
        for field in (name.encode(), path.read_bytes())
    )
    return native.digest("sha256", stream).hex()


def _git_state() -> dict[str, Any]:
    """SHA and dirty flag of this checkout (nulls outside a repository),
    and the digest of the package tree that ran."""

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
    return {
        "sha": sha,
        "dirty": bool(status) if status is not None else None,
        "tree": _tree_digest(),
    }


def gate_parser(gate: Gate) -> argparse.ArgumentParser:
    """The gate's own arguments plus the two every gate has."""
    parser = argparse.ArgumentParser(
        prog=" ".join(("repro", gate.command, *gate.flags)),
        description=gate.help,
        # A retired flag (``deploy --storm --crash``) must not pass as
        # the prefix of a live one (``--crashes``).
        allow_abbrev=False,
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


# -- fleet: device-loss storm ---------------------------------------------


def _fleet_storm_arguments(parser: argparse.ArgumentParser) -> None:
    # The seeded mixed-depth fleet of :func:`repro.storm.planted`.
    parser.add_argument("--hash", default="sha1", dest="hash_name")
    parser.add_argument("--requests", type=int, default=8)
    parser.add_argument("--depths", type=_int_tuple, default=(1, 2, 2, 3),
                        help="comma-separated search depths, cycled over the fleet")
    parser.add_argument("--batch-size", type=int, default=4096)
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


# -- fleet: host-device scaling + hedged stragglers ----------------------


def _fleet_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--hash", default="sha1", dest="hash_name")
    parser.add_argument("--batch-size", type=int, default=8192)
    parser.add_argument("--straggler-requests", type=int, default=4,
                        help="exhaustive d=2 sweeps served on host + slow-host")
    # Devices pull ranges, so the straggler holds one batch at a time:
    # x240 makes that batch straggle about as long as x30 on each of the
    # ~8 batches of a d=2 sweep pinned to it did, well past the 20 ms
    # hedge floor below.
    parser.add_argument("--slow-factor", type=float, default=240.0,
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
        "hedges_launched": snapshot["hedges_launched"],
        "hedge_wins": snapshot["hedge_wins"],
        "redispatched_chunks": snapshot["redispatched_chunks"],
    }


#: The worker-scaling reading sweeps on the ladder's serving geometry,
#: whatever the gate's own ``--hash`` / ``--batch-size``: a small SHA-1
#: workload is dispatcher-bound (at 4 096 rows it reads 1.0-1.3x however
#: many cores hash), so a floor on it would gate the dispatcher, not the
#: host devices.
_WORKER_SCALING_HASH = "sha3-256"
_WORKER_SCALING_BATCH = 16384
_WORKER_SCALING_FLOOR = 1.3
#: Sweeps per side: this many, and on while the reading is under the
#: floor — a shared host can hold one CPU at half speed for seconds — up to
#: the cap.
_WORKER_SCALING_SWEEPS = 12
_WORKER_SCALING_MAX_SWEEPS = 60


def _worker_scaling(seed: int) -> dict[str, Any]:
    """A ``host`` on one core vs on the cpuset (one device per core):
    alternating exhaustive d=2 sweeps (absent target) on two warm
    engines, each side's quiet-most sweep. The ratio is ``None`` where
    there is nothing to compare: a one-CPU cpuset, or no compiled kernel
    for the hash (``hashlib`` holds the interpreter lock, so the host
    devices share one core)."""
    import numpy as np

    from repro.fleet.engine import FleetSearchEngine, default_worker_count
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
    """Hedging off vs on for a straggler fleet, then one core vs the cpuset."""
    from repro.hashes.registry import get_hash

    algo = get_hash(args.hash_name)
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
    sections = (unhedged, hedged)
    metrics = {
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

    hedged = metrics["hedged"]
    scaling = metrics["worker_scaling"]
    if scaling["ratio"] is None:
        workers_line = f"  host-device scaling: n/a ({scaling['skipped']})"
    else:
        workers_line = (
            f"  host-device scaling (quiet-most of {scaling['sweeps']} exhaustive "
            f"d=2 sweeps, {scaling['hash_name']}, "
            f"bs={scaling['batch_size']}): 1 core "
            f"{scaling['one_core_seconds']:.3f}s -> {scaling['cores']} cores "
            f"{scaling['all_cores_seconds']:.3f}s ({scaling['ratio']:.2f}x)"
        )
    return "\n".join([
        "Fleet — host-device scaling and hedged-straggler p99",
        f"  hash={config['hash_name']}, bs={config['batch_size']}",
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


# -- deploy: kill-9 rounds, then the trace, on real processes -----------


def _deployment_arguments(parser: argparse.ArgumentParser) -> None:
    """:class:`repro.deploy.topology.TopologySpec` flags (dests are its
    fields), then the storm's own."""
    parser.add_argument("--servers", type=int, default=1)
    parser.add_argument("--devices", type=_str_tuple, default=("host", "host"),
                        help="fleet device tokens per server")
    parser.add_argument("--hash", default="sha1", dest="hash_name")
    parser.add_argument("--distance", type=int, default=2, dest="max_distance")
    parser.add_argument("--budget", type=float, default=5.0, dest="time_budget",
                        help="per-search time budget (protocol T)")
    parser.add_argument("--clients", type=int, default=8,
                        help="enrolled fleet size")
    parser.add_argument("--tenants", type=_str_tuple, default=(),
                        help="comma-separated tenant namespaces")
    parser.add_argument("--fsync", default="always", dest="durability",
                        help="WAL fsync policy of every server: always, "
                             "interval[:secs], or none")
    parser.add_argument("--profiles", type=_str_tuple,
                        default=("lan", "wan", "lossy-wan"),
                        help="comma-separated WAN profiles")
    parser.add_argument("--crashes", type=int, default=3,
                        help="kill-9 rounds per profile, before its trace")
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
    from repro.deploy.topology import TopologySpec

    fields = {field.name for field in dataclasses.fields(TopologySpec)}
    report = run_deployment_storm(
        TopologySpec(**{k: v for k, v in vars(args).items() if k in fields}),
        profiles=args.profiles,
        seed=args.seed,
        requests=args.requests,
        duration_seconds=args.duration,
        num_loadgens=args.loadgens,
        time_scale=args.time_scale,
        crashes=args.crashes,
        log=print,
    )
    return dataclasses.asdict(report), report.failures


def _deployment_render(record: Record) -> str:
    config, metrics = record["config"], record["metrics"]
    lines = [
        f"deployment storm: {metrics['topology']}",
        f"  {config['crashes']} kill-9 round(s), then {config['requests']} "
        f"requests over {config['duration']:g}s x{config['loadgens']} "
        f"loadgen(s), per profile",
    ]
    for profile in metrics["profiles"]:
        name = profile["profile"]
        for entry in profile["rounds"]:
            lines.append(
                f"  [{name}] round {entry['round_index']}: {entry['victim']} "
                f"killed after {entry['acked_before_kill']} ack(s), recovered "
                f"{entry['recovered_records']} record(s) in "
                f"{entry['recovery_seconds'] * 1000:.1f}ms, "
                f"lost {entry['lost_acknowledged']}"
            )
        outcomes = ", ".join(f"{k}={v}" for k, v in profile["outcomes"].items())
        lines.append(
            f"  [{name}] {outcomes}\n"
            f"    p50={profile['latency_p50_ms']:.1f}ms "
            f"p99={profile['latency_p99_ms']:.1f}ms "
            f"throughput={profile['throughput_rps']:.2f}req/s "
            f"false_auths={profile['false_authentications']}\n"
            f"    acked={profile['acknowledged_total']} "
            f"lost={profile['lost_acknowledged']} "
            f"nonce_reuse={profile['nonce_reuse_trips']} "
            f"restarts={profile['restarts']} "
            f"backoff={profile['backoff_seconds']:.2f}s "
            f"drained={profile['drained']}"
        )
        if profile["lossy_enroll_rps"] is not None:
            lines.append(
                f"    durable={profile['durable_enroll_rps']:.1f} enroll/s "
                f"lossy={profile['lossy_enroll_rps']:.1f} enroll/s "
                f"fsync_cost={profile['durability_overhead_pct'] or 0.0:+.1f}%"
            )
    lines.append(f"  verdict: {'PASS' if record['pass'] else 'FAIL'}")
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
            "fleet_storm", "fleet", ("--storm",),
            "device-loss storm: kill a fleet device mid-run, revive it (exit "
            "1 on a lost request, false auth, byte mismatch vs the "
            "single-device run, or missing re-dispatch)",
            _fleet_storm_arguments, _fleet_storm_run, _fleet_storm_render,
        ),
        Gate(
            "fleet", "fleet", ("--bench",),
            "host-device scaling, hedged vs unhedged straggler p99 (exit 1 "
            "on a lost request, false auth, scaling or hedging regression)",
            _fleet_arguments, _fleet_run, _fleet_render,
        ),
        Gate(
            "tenancy", "tenants", (),
            "noisy-neighbor storm: per-tenant quotas vs an aggressor burst "
            "(exit 1 if the victim's tail degrades or a shed is mistyped)",
            _tenancy_arguments, _tenancy_run, _tenancy_render,
        ),
        Gate(
            "deployment", "deploy", ("--storm",),
            "multi-process deployment storm: per WAN profile, kill-9 "
            "WAL-backed servers mid-enrollment and restart them, then serve "
            "a trace on them over TCP (exit 1 on a false auth, an untyped "
            "or lost request, a lost acknowledged enrollment, nonce reuse, "
            "an unauthenticated lan request, or an unclean drain)",
            _deployment_arguments, _deployment_run, _deployment_render,
        ),
    )
}
