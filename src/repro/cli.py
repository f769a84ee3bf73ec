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
* ``chaos``      — run a deterministic fault-injected authentication
                   storm and print the resilience report.
* ``sched``      — serve a mixed shallow/deep request fleet through the
                   deadline-aware scheduler and compare its tail
                   latencies against the FIFO baseline.
* ``deploy``     — stand a topology up as real OS processes over TCP
                   and drive a trace-driven storm under emulated WAN
                   profiles.
"""

from __future__ import annotations

import argparse
import sys

__all__ = ["main"]


def _cmd_demo(args: argparse.Namespace) -> int:
    import numpy as np

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
    from repro.devices import APUModel, COMM_TIME_SECONDS, CPUModel, GPUModel, speedup_curve

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
    from repro.runtime.original_batch import BATCH_KEYGEN_CHOICES

    print("hash kernels (seeds/s):")
    for name in ("sha1", "sha256", "sha3-256"):
        rate = build_engine("batch", hash_name=name).throughput_probe(args.samples)
        print(f"  {name:10s} {rate:14,.0f}")
    print("key-agile cipher kernels (responses/s):")
    for name in BATCH_KEYGEN_CHOICES:
        rate = build_engine(
            "original", keygen_name=name
        ).throughput_probe(args.samples)
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
    if result.cluster is not None:
        stats = result.cluster
        print(f"finder rank:   {stats.finder_rank}")
        print(f"per-rank seeds:{list(stats.per_rank_hashed)}")
        if stats.dead_ranks:
            print(f"dead ranks:    {list(stats.dead_ranks)} "
                  f"(recovery {stats.recovery_seconds:.4f} s)")
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


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.reliability.chaos import run_named_storm

    report = run_named_storm(
        args.plan, seed=args.seed, clients=args.clients, workers=args.workers
    )
    print(report.render())
    return 0 if report.false_authentications == 0 else 1


def _cmd_sched(args: argparse.Namespace) -> int:
    from repro.engines import build_engine
    from repro.hashes.registry import get_hash
    from repro.sched.workload import (
        mixed_workload,
        run_fifo,
        run_scheduled,
        summarize_latencies,
    )

    algo = get_hash(args.hash)
    depths = tuple(int(d) for d in args.depths.split(","))
    workload = mixed_workload(
        algo,
        requests=args.requests,
        depths=depths,
        seed=args.seed,
        deadline_seconds=args.deadline,
    )

    fifo_engine = build_engine(
        "batch", hash_name=args.hash, batch_size=args.batch_size, cache=True
    )
    fifo = summarize_latencies(run_fifo(fifo_engine, workload, args.budget))

    sched_engine = build_engine(
        "sched", hash_name=args.hash, batch_size=args.batch_size
    )
    try:
        sched = summarize_latencies(
            run_scheduled(sched_engine, workload, args.budget)
        )
        snapshot = sched_engine.scheduler.snapshot()
    finally:
        sched_engine.close()

    def row(label: str, stats: dict) -> str:
        if stats["count"] == 0:
            return f"  {label:<8} (no requests)"
        return (
            f"  {label:<8} n={stats['count']:<3} "
            f"p50={stats['p50_seconds']:.3f}s "
            f"p99={stats['p99_seconds']:.3f}s "
            f"max={stats['max_seconds']:.3f}s "
            f"found={stats['found']} timed_out={stats['timed_out']} "
            f"shed={stats['shed']}"
        )

    print(f"workload: {args.requests} requests, depths {depths}, "
          f"T={args.budget}s, hash={args.hash}")
    print("FIFO (one device, submission order):")
    for label in ("shallow", "deep", "all"):
        print(row(label, fifo[label]))
    print("scheduled (continuous batching, EDF lanes):")
    for label in ("shallow", "deep", "all"):
        print(row(label, sched[label]))
    print(
        f"scheduler: batches={snapshot['batches']} "
        f"shared={snapshot['shared_batches']} shed={snapshot['shed']} "
        f"preempted={snapshot['preempted']} "
        f"peak_queue={snapshot['peak_queue_depth']}"
    )
    fifo_p99 = fifo["shallow"].get("p99_seconds")
    sched_p99 = sched["shallow"].get("p99_seconds")
    if fifo_p99 is not None and sched_p99 is not None:
        print(f"shallow p99: FIFO {fifo_p99:.3f}s -> sched {sched_p99:.3f}s")
        return 0 if sched_p99 <= fifo_p99 else 1
    return 0


def _cmd_fleet(args: argparse.Namespace) -> int:
    from repro.fleet.storm import run_device_loss_storm

    devices = tuple(t.strip() for t in args.devices.split(",") if t.strip())
    depths = tuple(int(d) for d in args.depths.split(","))

    if args.storm:
        report = run_device_loss_storm(
            seed=args.seed,
            requests=args.requests,
            depths=depths,
            hash_name=args.hash,
            batch_size=args.batch_size,
            devices=devices,
            kill_fraction=args.kill_fraction,
            revive_fraction=args.revive_fraction,
        )
        print(report.render())
        return 0 if report.passed else 1

    from repro.fleet.engine import FleetSearchEngine
    from repro.hashes.registry import get_hash
    from repro.sched.errors import RequestShed
    from repro.sched.workload import mixed_workload

    algo = get_hash(args.hash)
    workload = mixed_workload(
        algo, requests=args.requests, depths=depths, seed=args.seed
    )
    engine = FleetSearchEngine(
        *devices, hash_name=args.hash, batch_size=args.batch_size
    )
    found = shed = 0
    try:
        tickets = [
            (
                request,
                engine.submit(
                    request.base_seed,
                    request.target_digest,
                    request.max_distance,
                    time_budget=args.budget,
                    client_id=request.client_id,
                ),
            )
            for request in workload
        ]
        for request, ticket in tickets:
            try:
                result = ticket.result(timeout=300.0)
            except RequestShed as exc:
                shed += 1
                print(f"  {request.client_id}: shed ({exc.reason})")
                continue
            found += 1 if result.found else 0
            stats = result.fleet
            device = stats.finder_device if stats else "?"
            print(
                f"  {request.client_id}: found={result.found} "
                f"d={result.distance} device={device} "
                f"elapsed={result.elapsed_seconds:.3f}s"
            )
        snapshot = engine.scheduler.snapshot()
    finally:
        engine.close()
    print(
        f"fleet {engine.describe()}: {found} found, {shed} shed; "
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
    return 0


def _cmd_directory(args: argparse.Namespace) -> int:
    if args.storm:
        from repro.directory.storm import run_shard_loss_storm

        report = run_shard_loss_storm(
            seed=args.seed,
            clients=args.clients if args.clients is not None else 24,
            shards=args.shards,
            replication=args.replication,
            shed_ceiling=args.shed_ceiling,
        )
        print(report.render())
        return 0 if report.passed else 1

    import numpy as np

    from repro.core.protocol import ClientDevice
    from repro.directory import ShardedEnrollmentDirectory
    from repro.net.concurrent import ConcurrentCAServer
    from repro.puf.model import SRAMPuf
    from repro.puf.ternary import enroll_with_masking
    from repro import quick_setup

    authority, _client, _mask = quick_setup(seed=args.seed, max_distance=2)
    directory = ShardedEnrollmentDirectory(
        master_key=b"demo-master-key!",
        shards=args.shards,
        replication=args.replication,
    )
    authority.image_db = directory

    print(f"directory: {args.shards} shards, replication {args.replication}")
    fleet = {}
    demo_clients = args.clients if args.clients is not None else 8
    for index in range(demo_clients):
        client_id = f"client-{index:02d}"
        puf = SRAMPuf(num_cells=2048, stable_error=0.001,
                      seed=args.seed * 1_000_003 + index)
        mask = enroll_with_masking(puf, address=0, window=2048, reads=48,
                                   instability_threshold=0.02)
        authority.enroll(client_id, mask)
        device = ClientDevice(client_id, puf, noise_target_distance=1,
                              rng=np.random.default_rng((args.seed, index)))
        fleet[client_id] = (device, authority.issue_challenge(client_id), mask)
        replicas = ", ".join(directory.replicas_for(client_id))
        print(f"  enrolled {client_id} -> [{replicas}]")

    def authenticate_all(server):
        for client_id, (device, challenge, mask) in fleet.items():
            digest = device.respond(challenge, reference_mask=mask)
            result = server.submit(client_id, digest).result(timeout=60.0)
            stats = directory.snapshot()
            print(f"  {client_id}: authenticated={result.authenticated} "
                  f"hot_hits={stats['hot_hits']} "
                  f"failovers={stats['failovers']}")

    with ConcurrentCAServer(authority, workers=2) as server:
        print("healthy pass (cold caches -> quorum reads):")
        authenticate_all(server)
        print("warm pass (hot-cache hits):")
        authenticate_all(server)
        primaries = [directory.replicas_for(c)[0] for c in fleet]
        victim = max(set(primaries), key=primaries.count)
        print(f"killing {victim}; replicas must carry its keys:")
        directory.kill_shard(victim)
        directory.drop_hot_caches()
        authenticate_all(server)
        metrics = server.metrics.snapshot()
    snapshot = directory.snapshot()
    print(f"directory: quorum_reads={snapshot['quorum_reads']} "
          f"hot_hits={snapshot['hot_hits']} "
          f"failovers={snapshot['failovers']} "
          f"read_repairs={snapshot['read_repairs']} "
          f"retries={snapshot['retries']}")
    print(f"server: completed={metrics['completed']:.0f} "
          f"directory_hot_hits={metrics['directory_hot_hits']:.0f} "
          f"directory_failovers={metrics['directory_failovers']:.0f} "
          f"shed_directory={metrics['shed_directory']:.0f}")
    return 0


def _cmd_tenants(args: argparse.Namespace) -> int:
    from repro.tenancy.workload import (
        AGGRESSOR_TENANT,
        VICTIM_TENANT,
        evaluate_gates,
        run_noisy_neighbor,
    )

    record = run_noisy_neighbor(
        hash_name=args.hash,
        victims=args.victims,
        aggressors=args.aggressors,
        aggressor_rate=args.aggressor_rate,
        aggressor_burst=args.aggressor_burst,
        workers=args.workers,
        seed=args.seed,
    )
    config = record["config"]

    def row(phase: str, tenant: str) -> str:
        stats = record[phase].get(tenant)
        if stats is None:
            return f"  {phase:<12} {tenant:<10} (absent)"
        tail = (
            f"p50={stats['p50_seconds']:.3f}s p99={stats['p99_seconds']:.3f}s"
            if stats["served"]
            else "(nothing served)"
        )
        return (
            f"  {phase:<12} {tenant:<10} n={stats['count']:<3} "
            f"served={stats['served']:<3} shed={stats['shed']:<3} {tail}"
        )

    print("tenants: noisy-neighbor storm under per-tenant quotas")
    print(f"  {config['victims']} victim + {config['aggressors']} aggressor "
          f"requests, aggressor bucket {config['aggressor_rate']}/s "
          f"burst={config['aggressor_burst']}, workers={config['workers']}, "
          f"hash={config['hash_name']}")
    print(row("baseline", VICTIM_TENANT))
    print(row("storm", VICTIM_TENANT))
    print(row("storm", AGGRESSOR_TENANT))
    print(row("unprotected", VICTIM_TENANT))
    print(f"  aggressor: {record['aggressor_admitted']} admitted, "
          f"{record['aggressor_shed']} shed {record['aggressor_shed_reasons']}")
    print(f"  victim p99: baseline "
          f"{record['victim_p99_baseline_seconds']:.3f}s -> storm "
          f"{record['victim_p99_storm_seconds']:.3f}s"
          + (f" ({record['victim_p99_ratio']:.2f}x)"
             if record["victim_p99_ratio"] is not None else "")
          + f"; unprotected "
            f"{record['victim_p99_unprotected_seconds']:.3f}s")

    print("per-tenant ledger (storm phase):")
    for tenant_id, stats in sorted(record["server"]["storm_tenants"].items()):
        line = (f"  {tenant_id:<10} "
                f"submitted={stats['submitted']:.0f} "
                f"completed={stats['completed']:.0f} "
                f"authenticated={stats['authenticated']:.0f} "
                f"shed={stats['shed']:.0f} "
                f"quota_hits={stats['quota_hits']:.0f}")
        if stats.get("p99_seconds") is not None:
            line += f" p99={stats['p99_seconds']:.3f}s"
        print(line)

    failures = evaluate_gates(record, ratio_limit=args.ratio_limit)
    for failure in failures:
        print(f"REGRESSION: {failure}", file=sys.stderr)
    return 1 if failures else 0


def _cmd_deploy(args: argparse.Namespace) -> int:
    from repro.deploy.storm import DEFAULT_PROFILES, run_deployment_storm
    from repro.deploy.topology import TopologySpec

    if not args.storm:
        print(
            "repro deploy: only --storm is implemented; "
            "run `repro deploy --storm`",
            file=sys.stderr,
        )
        return 2
    profiles = (
        tuple(p.strip() for p in args.profiles.split(",") if p.strip())
        if args.profiles
        else DEFAULT_PROFILES
    )
    topology = TopologySpec(
        servers=args.servers,
        devices=tuple(t.strip() for t in args.devices.split(",") if t.strip()),
        engine=args.engine,
        hash_name=args.hash,
        max_distance=args.distance,
        workers=args.workers,
        time_budget=args.budget,
        clients=args.clients,
        tenants=(
            tuple(t.strip() for t in args.tenants.split(",") if t.strip())
            if args.tenants
            else ()
        ),
        durability=args.fsync,
    )
    if args.crash:
        return _run_crash(args, topology)
    print(f"deployment storm: {topology.describe()}")
    print(f"profiles: {', '.join(profiles)}; {args.requests} requests "
          f"over {args.duration:g}s x{args.loadgens} loadgen(s)")
    report = run_deployment_storm(
        topology,
        profiles=profiles,
        seed=args.seed,
        requests=args.requests,
        duration_seconds=args.duration,
        num_loadgens=args.loadgens,
        time_scale=args.time_scale,
        output_path=args.output,
        log=print,
    )
    for profile in report.profiles:
        status = "ok" if profile.passed else "FAILED"
        outcomes = ", ".join(
            f"{k}={v}" for k, v in profile.outcomes.items()
        )
        print(f"[{profile.profile}] {status}: {outcomes}")
        print(f"  p50={profile.latency_p50_ms:.1f}ms "
              f"p99={profile.latency_p99_ms:.1f}ms "
              f"throughput={profile.throughput_rps:.2f}req/s "
              f"false_auths={profile.false_authentications}")
        for failure in profile.gate_failures:
            print(f"  GATE: {failure}", file=sys.stderr)
    if args.output:
        print(f"wrote {args.output}")
    return 0 if report.passed else 1


def _run_crash(args: argparse.Namespace, topology) -> int:
    """``repro deploy --storm --crash``: the kill-9 crash-restart storm."""
    from repro.deploy.storm import run_crash_storm
    from repro.deploy.supervisor import RestartPolicy

    report = run_crash_storm(
        topology,
        seed=args.seed,
        crashes=args.crashes,
        restart_policy=RestartPolicy(
            max_restarts=args.max_restarts, seed=args.seed
        ),
        output_path=args.output,
        log=print,
    )
    status = "ok" if report.passed else "FAILED"
    print(f"crash storm {status}: {report.crashes} kill-9 round(s), "
          f"{report.acknowledged_total} acked enrollments, "
          f"{report.lost_acknowledged} lost, "
          f"{report.nonce_reuse_trips} nonce-reuse trip(s), "
          f"{report.false_authentications} false auth(s)")
    for entry in report.rounds:
        print(f"  round {entry.round_index}: {entry.victim} recovered "
              f"{entry.recovered_records} record(s) in "
              f"{entry.recovery_seconds * 1000:.1f}ms")
    print(f"  durable {report.durable_enroll_rps:.1f} enroll/s vs lossy "
          f"{report.lossy_enroll_rps:.1f} enroll/s "
          f"({report.durability_overhead_pct:+.1f}% fsync cost); "
          f"{report.restarts} restart(s), "
          f"{report.backoff_seconds:.2f}s backoff")
    for failure in report.gate_failures:
        print(f"  GATE: {failure}", file=sys.stderr)
    if args.output:
        print(f"wrote {args.output}")
    return 0 if report.passed else 1


def main(argv: list[str] | None = None) -> int:
    """Parse arguments and dispatch to the chosen subcommand."""
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
        help="engine spec, e.g. cluster:4,bs=8192 or a dotted factory path",
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

    chaos = sub.add_parser("chaos", help="fault-injected authentication storm")
    # Kept literal so parsing stays import-free; test_chaos checks it
    # matches sorted(NAMED_PLANS).
    chaos.add_argument(
        "--plan",
        default="lossy-wan",
        choices=("clean", "flaky-device", "lossy-wan", "smoke"),
        help="named fault plan",
    )
    chaos.add_argument("--seed", type=int, default=0)
    chaos.add_argument("--clients", type=int, default=None,
                       help="override the plan's fleet size")
    chaos.add_argument("--workers", type=int, default=None,
                       help="override the server worker count")
    chaos.set_defaults(fn=_cmd_chaos)

    sched = sub.add_parser(
        "sched", help="scheduler vs FIFO tail latency on a mixed fleet"
    )
    sched.add_argument("--hash", default="sha1")
    sched.add_argument("--requests", type=int, default=16)
    sched.add_argument("--depths", default="1,2,3,4",
                       help="comma-separated search depths, cycled")
    sched.add_argument("--budget", type=float, default=5.0,
                       help="per-request time budget (protocol T)")
    sched.add_argument("--deadline", type=float, default=None,
                       help="client deadline attached to shallow requests")
    sched.add_argument("--batch-size", type=int, default=16384,
                       dest="batch_size")
    sched.add_argument("--seed", type=int, default=0)
    sched.set_defaults(fn=_cmd_sched)

    fleet = sub.add_parser(
        "fleet", help="multi-device dispatch demo / device-loss storm"
    )
    fleet.add_argument("--devices", default="host,host",
                       help="comma-separated device tokens, e.g. "
                            "host,flaky-apu or gpu,slow-host")
    fleet.add_argument("--hash", default="sha1")
    fleet.add_argument("--requests", type=int, default=8)
    fleet.add_argument("--depths", default="1,2,2,3",
                       help="comma-separated search depths, cycled")
    fleet.add_argument("--budget", type=float, default=None,
                       help="per-request time budget (protocol T)")
    fleet.add_argument("--batch-size", type=int, default=4096,
                       dest="batch_size")
    fleet.add_argument("--seed", type=int, default=0)
    fleet.add_argument("--storm", action="store_true",
                       help="run the device-loss chaos storm instead "
                            "(kill a device mid-run; exit 1 on any lost "
                            "request, false auth, or byte mismatch)")
    fleet.add_argument("--kill-fraction", type=float, default=0.25,
                       dest="kill_fraction")
    fleet.add_argument("--revive-fraction", type=float, default=0.75,
                       dest="revive_fraction")
    fleet.set_defaults(fn=_cmd_fleet)

    directory = sub.add_parser(
        "directory",
        help="sharded enrollment directory demo / shard-loss storm",
    )
    directory.add_argument("--shards", type=int, default=8)
    directory.add_argument("--replication", type=int, default=2)
    directory.add_argument("--clients", type=int, default=None,
                           help="fleet size (default: 8 for the demo, "
                                "24 for the storm)")
    directory.add_argument("--seed", type=int, default=0)
    directory.add_argument("--storm", action="store_true",
                           help="run the shard-loss chaos storm instead "
                                "(kill one shard, then a whole replica "
                                "set, then revive; exit 1 on any false "
                                "auth, untyped shed, or unhealed replica)")
    directory.add_argument("--shed-ceiling", type=float, default=0.5,
                           dest="shed_ceiling",
                           help="max tolerated overall shed rate across "
                                "the storm's four waves")
    directory.set_defaults(fn=_cmd_directory)

    tenants = sub.add_parser(
        "tenants",
        help="noisy-neighbor storm: per-tenant quotas vs an aggressor "
             "burst (exit 1 if the victim's tail degrades or a shed "
             "is mistyped)",
    )
    tenants.add_argument("--hash", default="sha1")
    tenants.add_argument("--victims", type=int, default=6,
                         help="victim fleet size (requests)")
    tenants.add_argument("--aggressors", type=int, default=12,
                         help="aggressor burst size (requests)")
    tenants.add_argument("--aggressor-rate", type=float, default=1.0,
                         dest="aggressor_rate",
                         help="aggressor token-bucket refill "
                              "(lookups/second)")
    tenants.add_argument("--aggressor-burst", type=float, default=1.0,
                         dest="aggressor_burst",
                         help="aggressor token-bucket capacity")
    tenants.add_argument("--workers", type=int, default=2)
    tenants.add_argument("--seed", type=int, default=0)
    tenants.add_argument("--ratio-limit", type=float, default=1.25,
                         dest="ratio_limit",
                         help="allowed victim p99 degradation under "
                              "the storm")
    tenants.set_defaults(fn=_cmd_tenants)

    deploy = sub.add_parser(
        "deploy",
        help="multi-process deployment storm: real server/loadgen "
             "processes over TCP under emulated WAN profiles (exit 1 "
             "on any false auth, untyped failure, or unclean drain)",
    )
    deploy.add_argument("--storm", action="store_true",
                        help="stand up the topology, drive the trace, "
                             "scrape metrics, tear down")
    deploy.add_argument("--profiles", default=None,
                        help="comma-separated WAN profiles "
                             "(default: lan,wan,lossy-wan)")
    deploy.add_argument("--servers", type=int, default=1)
    deploy.add_argument("--devices", default="host,host",
                        help="fleet device tokens per server")
    deploy.add_argument("--engine", default="fleet",
                        choices=("fleet", "sched", "fifo"))
    deploy.add_argument("--hash", default="sha1")
    deploy.add_argument("--distance", type=int, default=2)
    deploy.add_argument("--workers", type=int, default=2)
    deploy.add_argument("--budget", type=float, default=5.0,
                        help="per-search time budget (protocol T)")
    deploy.add_argument("--clients", type=int, default=8,
                        help="enrolled fleet size")
    deploy.add_argument("--tenants", default=None,
                        help="comma-separated tenant namespaces")
    deploy.add_argument("--requests", type=int, default=36,
                        help="requests per profile")
    deploy.add_argument("--duration", type=float, default=6.0,
                        help="trace window in seconds")
    deploy.add_argument("--loadgens", type=int, default=2,
                        help="load-generator processes")
    deploy.add_argument("--time-scale", type=float, default=1.0,
                        dest="time_scale",
                        help="compress (<1) or stretch (>1) arrivals")
    deploy.add_argument("--seed", type=int, default=0)
    deploy.add_argument("--output", default=None,
                        help="write BENCH_deployment.json here "
                             "(BENCH_recovery.json with --crash)")
    deploy.add_argument("--crash", action="store_true",
                        help="kill-9 crash-restart storm instead of the "
                             "WAN-profile sweep: SIGKILL a server "
                             "mid-enrollment burst, restart it, gate on "
                             "zero acknowledged loss / nonce reuse / "
                             "false auths")
    deploy.add_argument("--crashes", type=int, default=3,
                        help="kill-9 rounds (--crash only)")
    deploy.add_argument("--max-restarts", type=int, default=8,
                        dest="max_restarts",
                        help="supervisor restart budget (--crash only)")
    deploy.add_argument("--fsync", default="",
                        help="WAL fsync policy: always, interval[:secs], "
                             "or none; empty keeps the in-memory store "
                             "(--crash forces always when empty)")
    deploy.set_defaults(fn=_cmd_deploy)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ValueError as exc:
        # A value argparse accepted but the command refused (--clients 0,
        # --seed -1, a one-device storm): a usage error, not a traceback.
        print(f"repro {args.command}: error: {exc}", file=sys.stderr)
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
