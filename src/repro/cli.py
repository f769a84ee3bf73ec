"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``demo``       — one full authentication round (quickstart).
* ``tables``     — regenerate the paper's headline tables from the
                   device models (Table 5, Table 6, Figure 4 endpoints).
* ``probe``      — measure this host's real kernel throughputs.
* ``engines``    — list the search-engine registry and each engine's
                   configuration schema.
* ``search``     — run one Algorithm-1 search on any registered engine
                   (``--engine batch:sha3-256,bs=16384``).
* ``attack``     — run the opponent simulation against a fresh digest.
* ``complexity`` — print Table 1 and the tractability planner.
* ``fleet``      — the multi-device dispatch demo.

The serving gates — ``chaos``, ``fleet --storm``, ``fleet --bench``,
``tenants`` and ``deploy --storm`` — are not
written here: each is one definition in :mod:`repro.gates`, and
:func:`main` hands a matching command line to that module's runner
(every gate takes ``--seed`` and ``--output``).
"""

from __future__ import annotations

import argparse
import sys
from typing import Any

from repro.gates import GATES, _int_tuple, _str_tuple, run_gate, select_gate
from repro.storm import (
    drive,
    invariant_failures,
    planted,
    summarize,
    ticket_submit,
)

__all__ = ["main"]


def _cmd_demo(args: argparse.Namespace) -> int:
    from repro import quick_setup
    from repro.core import RBCSaltedProtocol

    authority, client, mask = quick_setup(
        seed=args.seed, max_distance=args.distance,
        noise_target_distance=args.distance,
    )
    outcome = RBCSaltedProtocol(authority).authenticate(client, reference_mask=mask)
    print(f"authenticated: {outcome.authenticated}")
    print(f"distance:      {outcome.distance}")
    print(f"seeds hashed:  {outcome.seeds_hashed:,}")
    print(f"search time:   {outcome.search_seconds:.3f} s")
    if outcome.public_key:
        print(f"public key:    {outcome.public_key[:16].hex()}…")
    return 0 if outcome.authenticated else 1


def _cmd_tables(args: argparse.Namespace) -> int:
    from repro.analysis.tables import format_table
    from repro.devices import COMM_TIME_SECONDS, APUModel, CPUModel, GPUModel, speedup_curve

    models = [("GPU", GPUModel()), ("APU", APUModel()), ("CPU", CPUModel())]
    rows = []
    for hash_name in ("sha1", "sha3-256"):
        for mode in ("exhaustive", "average"):
            for label, model in models:
                search = model.search_time(hash_name, 5, mode)
                rows.append([label, hash_name, mode, f"{search:.2f}",
                             f"{COMM_TIME_SECONDS + search:.2f}"])
    print(format_table(
        ["platform", "hash", "mode", "search (s)", "total (s)"],
        rows, title="Table 5 (reproduced)"))
    print()
    energy_rows = []
    for label, model in models[:2]:
        for hash_name in ("sha1", "sha3-256"):
            timing = model.simulate_search(hash_name, 5)
            energy_rows.append([label, hash_name, f"{timing.energy_joules:.1f}"])
    print(format_table(["platform", "hash", "joules"], energy_rows,
                       title="Table 6 (reproduced)"))
    print()
    for h in ("sha1", "sha3-256"):
        for mode in ("exhaustive", "average"):
            pts = speedup_curve(h, mode, 3)
            print(f"Fig 4 {h:9s} {mode:11s}: "
                  + ", ".join(f"{p.speedup:.2f}x" for p in pts))
    return 0


def _cmd_probe(args: argparse.Namespace) -> int:
    from repro.engines import build_engine
    from repro.runtime.original_batch import (
        BATCH_KEYGEN_CHOICES,
        BatchOriginalRBCSearch,
    )

    print("hash kernels (seeds/s):")
    for name in ("sha1", "sha256", "sha3-256"):
        rate = build_engine("batch", hash_name=name).throughput_probe(args.samples)
        print(f"  {name:10s} {rate:14,.0f}")
    print("key-agile cipher kernels (responses/s):")
    for name in BATCH_KEYGEN_CHOICES:
        rate = BatchOriginalRBCSearch(name).throughput_probe(args.samples)
        print(f"  {name:10s} {rate:14,.0f}")
    return 0


def _cmd_engines(args: argparse.Namespace) -> int:
    """List the engine registry and each engine's config schema."""
    from repro.analysis.tables import format_table
    from repro.engines import engine_entries

    entries = engine_entries()
    print(format_table(
        ["engine", "description"],
        [[entry.name, entry.description] for entry in entries],
        title="registered engines (build_engine spec: name[:arg,...][,k=v,...])",
    ))
    print()
    for entry in entries:
        aliases = ", ".join(
            f"{short}={full}" for short, full in sorted(entry.aliases)
        )
        print(f"{entry.name}:")
        for param, default, kind in entry.schema:
            print(f"  {param:15s} {kind:6s} default={default}")
        if aliases:
            print(f"  aliases: {aliases}")
    return 0


def _cmd_search(args: argparse.Namespace) -> int:
    """One Algorithm-1 search on any registered engine spec."""
    import numpy as np

    from repro._bitutils import flip_bits
    from repro.engines import build_engine, describe_engine, engine_target

    try:
        engine = build_engine(args.engine)
    except (KeyError, ValueError) as exc:
        message = exc.args[0] if exc.args else str(exc)
        print(f"repro search: error: {message}", file=sys.stderr)
        return 2
    rng = np.random.default_rng(args.seed)
    enrolled = rng.bytes(32)
    # Plant the "client's" seed a known number of bit flips away, then
    # search from the enrolled seed — the CA's side of the protocol.
    positions = (
        sorted(int(p) for p in rng.choice(256, size=args.distance, replace=False))
        if args.distance
        else []
    )
    client_seed = flip_bits(enrolled, positions)
    target = engine_target(engine, client_seed)
    max_distance = (
        args.max_distance if args.max_distance is not None else args.distance
    )
    result = engine.search(
        enrolled, target, max_distance, time_budget=args.budget
    )
    print(f"engine:        {result.engine or describe_engine(engine)}")
    print(f"found:         {result.found}")
    print(f"distance:      {result.distance}")
    print(f"timed out:     {result.timed_out}")
    print(f"seeds hashed:  {result.seeds_hashed:,}")
    print(f"elapsed:       {result.elapsed_seconds:.4f} s")
    if result.shells:
        print("shells:")
        for shell in result.shells:
            print(
                f"  d={shell.distance}: {shell.seeds_hashed:,} seeds "
                f"in {shell.seconds:.4f} s"
            )
    if result.found and result.seed != client_seed:
        # A different seed with the same response is possible in
        # principle but at these sizes indicates an engine bug.
        print("warning: found seed differs from the planted seed")
    return 0 if result.found else 1


def _cmd_attack(args: argparse.Namespace) -> int:
    import numpy as np

    from repro.core.attack import OpponentSimulator, avalanche_profile
    from repro.hashes.registry import get_hash

    rng = np.random.default_rng(args.seed)
    digest = get_hash(args.hash).scalar(rng.bytes(32))
    simulator = OpponentSimulator(args.hash)
    estimate = simulator.brute_force(digest, budget_seconds=args.budget, rng=rng)
    print("opponent brute force:", estimate.summary())
    mean, std = avalanche_profile(args.hash, samples=100, rng=rng)
    print(f"avalanche: {mean:.3f} ± {std:.3f} (ideal 0.5)")
    print(f"server advantage at d=5: {simulator.informed_search_advantage(5):.3g}x")
    return 0


def _cmd_experiments(args: argparse.Namespace) -> int:
    from repro.analysis.experiments import render_index

    print(render_index())
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    """Assemble benchmarks/results/*.txt into one markdown report."""
    import pathlib

    results_dir = pathlib.Path(args.results_dir)
    if not results_dir.is_dir():
        print(
            f"no results at {results_dir}; run "
            "`pytest benchmarks/ --benchmark-only` first",
            file=sys.stderr,
        )
        return 1
    sections = sorted(results_dir.glob("*.txt"))
    if not sections:
        print("results directory is empty", file=sys.stderr)
        return 1
    lines = [
        "# Reproduction results",
        "",
        "Assembled from `benchmarks/results/` — regenerate with "
        "`pytest benchmarks/ --benchmark-only`.",
        "",
    ]
    for path in sections:
        lines.append(f"## {path.stem}")
        lines.append("")
        lines.append("```")
        lines.append(path.read_text().rstrip())
        lines.append("```")
        lines.append("")
    output = pathlib.Path(args.output)
    output.write_text("\n".join(lines))
    print(f"wrote {output} ({len(sections)} sections)")
    return 0


def _cmd_complexity(args: argparse.Namespace) -> int:
    from repro.analysis.tables import format_table
    from repro.core.complexity import table1_rows, tractable_distance

    rows = [[r.d, f"{r.exhaustive:,}", f"{r.average:,}"] for r in table1_rows(args.max_d)]
    print(format_table(["d", "exhaustive", "average"], rows, title="Table 1"))
    if args.throughput:
        d = tractable_distance(args.throughput, args.threshold)
        print(f"\nat {args.throughput:,.0f} hashes/s and T={args.threshold}s: d_max = {d}")
    return 0


def _report_lost(stats: dict[str, Any]) -> int:
    """A demo's exit code from its outcome summary: 1, with one GATE line
    each, if a request was lost or failed outside the typed refusals."""
    failures = invariant_failures(untyped=stats["errors"], lost=stats["lost"])
    for failure in failures:
        print(f"GATE: {failure}", file=sys.stderr)
    return 1 if failures else 0


def _cmd_fleet(args: argparse.Namespace) -> int:
    """Serve a mixed workload on a multi-device fleet and show who ran what."""
    from repro.fleet.engine import FleetSearchEngine
    from repro.hashes.registry import get_hash

    workload = planted(get_hash(args.hash), args.requests, args.depths, args.seed)
    engine = FleetSearchEngine(
        *args.devices, hash_name=args.hash, batch_size=args.batch_size
    )
    try:
        outcomes = drive(
            ticket_submit(engine, args.budget), workload, timeout=300.0
        )
        snapshot = engine.scheduler.snapshot()
    finally:
        engine.close(drain=False)
    for outcome in outcomes:
        client_id, result = outcome.request.client_id, outcome.result
        if not outcome.served:
            print(f"  {client_id}: {outcome.status} ({outcome.detail})")
            continue
        print(
            f"  {client_id}: found={result.found} "
            f"d={result.distance} elapsed={result.elapsed_seconds:.3f}s"
        )
    stats = summarize(outcomes)
    print(
        f"fleet {engine.describe()}: {stats['found']} found, {stats['shed']} shed; "
        f"batches={snapshot['batches']} "
        f"redispatched={snapshot['redispatched_chunks']} "
        f"hedges={snapshot['hedges_launched']} "
        f"quarantines={snapshot['quarantines']}"
    )
    for name, dev in sorted(snapshot["devices"].items()):
        print(
            f"  device {name}: health={dev['health']} "
            f"batches={dev['batches']} rows={dev['rows_hashed']} "
            f"failures={dev['failures']} probes={dev['probes']}"
        )
    return _report_lost(stats)


def _parser() -> argparse.ArgumentParser:
    """Every command that is not a gate; gate words are listed for --help."""
    parser = argparse.ArgumentParser(
        prog="repro", description="RBC-SALTED reproduction toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo", help="run one authentication round")
    demo.add_argument("--seed", type=int, default=7)
    demo.add_argument("--distance", type=int, default=2, choices=(1, 2, 3))
    demo.set_defaults(fn=_cmd_demo)

    tables = sub.add_parser("tables", help="regenerate headline tables")
    tables.set_defaults(fn=_cmd_tables)

    probe = sub.add_parser("probe", help="measure host kernel throughput")
    probe.add_argument("--samples", type=int, default=30000)
    probe.set_defaults(fn=_cmd_probe)

    engines = sub.add_parser("engines", help="list the engine registry")
    engines.set_defaults(fn=_cmd_engines)

    search = sub.add_parser("search", help="run one search on any engine")
    search.add_argument(
        "--engine", default="batch:sha3-256,bs=16384",
        help="engine spec, e.g. fleet:host,host,bs=8192, or a dotted factory "
             "path: repro.runtime.original_batch.BatchOriginalRBCSearch:aes-128",
    )
    search.add_argument("--distance", type=int, default=2,
                        help="bit flips to plant between client and CA")
    search.add_argument("--max-distance", type=int, default=None,
                        dest="max_distance",
                        help="search horizon (default: the planted distance)")
    search.add_argument("--budget", type=float, default=None,
                        help="time budget in seconds (protocol T)")
    search.add_argument("--seed", type=int, default=0)
    search.set_defaults(fn=_cmd_search)

    attack = sub.add_parser("attack", help="opponent simulation")
    attack.add_argument("--hash", default="sha3-256")
    attack.add_argument("--budget", type=float, default=1.0)
    attack.add_argument("--seed", type=int, default=0)
    attack.set_defaults(fn=_cmd_attack)

    experiments = sub.add_parser("experiments", help="list the experiment index")
    experiments.set_defaults(fn=_cmd_experiments)

    report = sub.add_parser("report", help="assemble benchmark results")
    report.add_argument("--results-dir", default="benchmarks/results")
    report.add_argument("--output", default="RESULTS.md")
    report.set_defaults(fn=_cmd_report)

    complexity = sub.add_parser("complexity", help="Table 1 and planning")
    complexity.add_argument("--max-d", type=int, default=5, dest="max_d")
    complexity.add_argument("--throughput", type=float, default=None)
    complexity.add_argument("--threshold", type=float, default=20.0)
    complexity.set_defaults(fn=_cmd_complexity)

    fleet = sub.add_parser(
        "fleet",
        help="multi-device dispatch demo; --storm is the device-loss "
             "storm, --bench the host-device scaling + hedging gate",
    )
    fleet.add_argument("--devices", type=_str_tuple, default=("host", "host"),
                       help="comma-separated device tokens, e.g. "
                            "host,flaky-apu or gpu,slow-host")
    fleet.add_argument("--hash", default="sha1")
    fleet.add_argument("--requests", type=int, default=8)
    fleet.add_argument("--depths", type=_int_tuple, default=(1, 2, 2, 3),
                       help="comma-separated search depths, cycled")
    fleet.add_argument("--budget", type=float, default=None,
                       help="per-request time budget (protocol T)")
    fleet.add_argument("--batch-size", type=int, default=4096,
                       dest="batch_size")
    fleet.add_argument("--seed", type=int, default=0)
    fleet.set_defaults(fn=_cmd_fleet)

    # Gate words without a plain command of their own, so `repro --help`
    # lists them; a gate word given without one of its modes lands here.
    for gate in GATES.values():
        if gate.command not in sub.choices:
            sub.add_parser(gate.command, help=gate.help)
    parser.set_defaults(fn=_needs_mode)
    return parser


def _needs_mode(args: argparse.Namespace) -> int:
    modes = (g.flags for g in GATES.values() if g.command == args.command)
    raise ValueError("pick a mode: " + " | ".join(" ".join(m) for m in modes))


def main(argv: list[str] | None = None) -> int:
    """Run the gate ``argv`` names, or parse and dispatch a plain command."""
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        gate = select_gate(argv)
        if gate is not None:
            return run_gate(gate, [a for a in argv[1:] if a not in gate.flags])
        args = _parser().parse_args(argv)
        return int(args.fn(args))
    except ValueError as exc:
        # A value argparse accepted but the command refused (--clients 0,
        # --seed -1, a one-device storm): a usage error, not a traceback.
        print(f"repro {argv[0]}: error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Downstream pager/head closed the pipe — normal CLI etiquette.
        try:
            sys.stdout.close()
        except Exception:
            pass
        return 0


if __name__ == "__main__":
    sys.exit(main())
