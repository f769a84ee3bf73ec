"""One-command deployment storms.

:func:`run_deployment_storm` is the whole pipeline: for each WAN profile
it stands a topology up as real OS processes (N servers announcing
their ephemeral ports, M load generators replaying their trace slices
over real TCP), waits for the load to drain, scrapes every server's
:class:`~repro.net.concurrent.ServerMetrics` over the admin metrics
frame, SIGTERMs the deployment, and verifies the teardown was *clean* —
every server exits 0 having printed ``DEPLOY-DRAINED``.

The acceptance gates are deliberately blunt:

* zero false authentications on every profile (the server-side tripwire
  re-hashes each found seed against the submitted digest);
* zero untyped failures — every client-observed error must map to a
  typed bucket (``shed:*``, ``dropped``, ``corrupt``, ``busy``, ...);
* every server drains and exits 0 under SIGTERM;
* the ``lan`` profile authenticates 100% of requests.

``repro deploy --storm [--crash]`` (:mod:`repro.gates`) turns a report
into the one benchmark record: per-profile end-to-end p50/p99,
throughput, and shed/redispatch/failover counters.
"""

from __future__ import annotations

import json
import os
import re
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

from repro.analysis.metrics import percentile
from repro.deploy.enrollment import client_identity, tenant_for
from repro.deploy.loadgen import _run_entry, spec_to_json
from repro.deploy.supervisor import (
    ProcessDied,
    ProcessSupervisor,
    RestartPolicy,
)
from repro.deploy.topology import TopologySpec
from repro.deploy.trace import TraceEntry
from repro.net.errors import TransportError
from repro.net.sockets import RemoteCAServer, SocketTransport
from repro.storm import invariant_failures

__all__ = [
    "ProfileReport",
    "DeploymentReport",
    "CrashRound",
    "CrashStormReport",
    "run_deployment_storm",
    "run_crash_storm",
    "DEFAULT_PROFILES",
]

DEFAULT_PROFILES = ("lan", "wan", "lossy-wan")
_READY_REGEX = r"DEPLOY-READY (\S+) (\d+)"
_RECOVERED_REGEX = re.compile(r"DEPLOY-RECOVERED (\d+) ([0-9.]+)")


@dataclass
class ProfileReport:
    """Everything measured about one profile's deployment."""

    profile: str
    requests: int
    outcomes: dict[str, int]
    latency_p50_ms: float
    latency_p99_ms: float
    throughput_rps: float
    wall_seconds: float
    server_counters: dict[str, float]
    shed_reasons: dict[str, int]
    false_authentications: int
    untyped: list[dict] = field(default_factory=list)
    server_exits: dict[str, int | None] = field(default_factory=dict)
    drained: bool = False
    #: Gate invariants this profile broke, by name; empty is PASS.
    failures: list[str] = field(default_factory=list)


@dataclass
class DeploymentReport:
    """A full storm: one ProfileReport per WAN profile."""

    topology: str
    profiles: list[ProfileReport]

    @property
    def failures(self) -> list[str]:
        """Every profile's broken invariants, prefixed with its profile."""
        return [
            f"[{p.profile}] {failure}"
            for p in self.profiles
            for failure in p.failures
        ]


def _child_env() -> dict[str, str]:
    """Children must import repro the same way this process does."""
    import repro

    src = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src if not existing else src + os.pathsep + existing
    return env


def _spawn_server(
    supervisor: ProcessSupervisor,
    name: str,
    spec_json: str,
    seed: int,
    env: dict[str, str],
    data_dir: Path | None = None,
) -> tuple[str, int]:
    """Start one ``repro.deploy.server`` child; its announced address."""
    argv = [
        sys.executable, "-m", "repro.deploy.server",
        "--spec", spec_json, "--seed", str(seed), "--port", "0",
    ]
    if data_dir is not None:
        argv += ["--data-dir", str(data_dir)]
    managed = supervisor.spawn(name, argv, env=env, ready_regex=_READY_REGEX)
    return _ready_address(managed)


def _ready_address(managed) -> tuple[str, int]:
    match = managed.ready_match
    assert match is not None
    return match.group(1), int(match.group(2))


def _drained(
    supervisor: ProcessSupervisor, exits: dict[str, int | None], servers: int
) -> bool:
    """Every server exited 0 having printed ``DEPLOY-DRAINED``."""
    return all(
        exits.get(f"server-{i}") == 0
        and any(
            "DEPLOY-DRAINED" in line
            for line in supervisor.output_of(f"server-{i}")
        )
        for i in range(servers)
    )


def _scrape_metrics(host: str, port: int, include_tenants: bool):
    transport = SocketTransport(host, port)
    try:
        return RemoteCAServer(transport).fetch_metrics(
            include_tenants=include_tenants
        )
    finally:
        transport.close()


def _merge_counters(snapshots) -> dict[str, float]:
    merged: dict[str, float] = {}
    for snapshot in snapshots:
        for key, value in snapshot.items():
            merged[key] = merged.get(key, 0) + value
    return merged


def run_profile(
    topology: TopologySpec,
    seed: int,
    requests: int,
    duration_seconds: float,
    num_loadgens: int,
    time_scale: float,
    scratch_dir: Path,
    log=None,
) -> ProfileReport:
    """Stand up, drive, scrape, and tear down one profile's deployment."""
    say = log if log is not None else (lambda _msg: None)
    spec_json = spec_to_json(topology)
    profile = topology.wan_profile
    scratch_dir.mkdir(parents=True, exist_ok=True)
    env = _child_env()
    started = time.monotonic()

    with ProcessSupervisor(grace_seconds=30.0) as supervisor:
        addresses = [
            _spawn_server(supervisor, f"server-{index}", spec_json, seed, env)
            for index in range(topology.servers)
        ]
        say(
            f"[{profile}] {topology.servers} server(s) ready at "
            + ", ".join(f"{h}:{p}" for h, p in addresses)
        )

        output_paths: list[Path] = []
        for index in range(num_loadgens):
            output = scratch_dir / f"loadgen-{profile}-{index}.json"
            output_paths.append(output)
            argv = [
                sys.executable,
                "-m",
                "repro.deploy.loadgen",
                "--spec",
                spec_json,
                "--seed",
                str(seed),
                "--requests",
                str(requests),
                "--duration",
                str(duration_seconds),
                "--loadgen-index",
                str(index),
                "--num-loadgens",
                str(num_loadgens),
                "--time-scale",
                str(time_scale),
                "--output",
                str(output),
            ]
            for host, port in addresses:
                argv.extend(["--server", f"{host}:{port}"])
            supervisor.spawn(f"loadgen-{index}", argv, env=env)

        # Health-check the servers while the load drains; a dead server
        # is a storm failure, not a mystery of missing replies.
        loadgen_deadline = time.monotonic() + max(
            120.0, duration_seconds * time_scale * 4 + 120.0
        )
        for index in range(num_loadgens):
            supervisor.ensure_alive(
                *(f"server-{i}" for i in range(topology.servers))
            )
            remaining = max(1.0, loadgen_deadline - time.monotonic())
            code = supervisor.wait(f"loadgen-{index}", timeout=remaining)
            if code != 0:
                raise ProcessDied(
                    f"loadgen-{index}",
                    code,
                    supervisor.output_of(f"loadgen-{index}"),
                )
        say(f"[{profile}] load drained; scraping server metrics")

        snapshots = [
            _scrape_metrics(host, port, bool(topology.tenants))
            for host, port in addresses
        ]
        server_exits = supervisor.teardown()
        drained = _drained(supervisor, server_exits, topology.servers)

    wall = time.monotonic() - started
    records: list[dict] = []
    for path in output_paths:
        with open(path, encoding="utf-8") as handle:
            records.extend(json.load(handle)["records"])
    outcomes: dict[str, int] = {}
    for record in records:
        outcomes[record["outcome"]] = outcomes.get(record["outcome"], 0) + 1
    untyped = [
        r for r in records if r["outcome"].startswith(("untyped:", "retries-exhausted:untyped:"))
    ]
    completed = [
        r["latency_seconds"]
        for r in records
        if r["outcome"] == "authenticated"
    ]
    counters = _merge_counters(s.counters for s in snapshots)
    shed_reasons = _merge_counters(s.shed_reasons for s in snapshots)
    false_auths = sum(s.false_authentications for s in snapshots)

    report = ProfileReport(
        profile=profile,
        requests=len(records),
        outcomes=dict(sorted(outcomes.items())),
        latency_p50_ms=percentile(completed, 50) * 1000.0 if completed else 0.0,
        latency_p99_ms=percentile(completed, 99) * 1000.0 if completed else 0.0,
        throughput_rps=(len(completed) / wall) if wall > 0 else 0.0,
        wall_seconds=wall,
        server_counters=counters,
        shed_reasons={k: int(v) for k, v in shed_reasons.items()},
        false_authentications=false_auths,
        untyped=untyped,
        server_exits=server_exits,
        drained=drained,
    )
    _apply_gates(report, requests)
    return report


def _apply_gates(report: ProfileReport, requests: int) -> None:
    report.failures += invariant_failures(
        false_authentications=report.false_authentications,
        untyped=[r["outcome"] for r in report.untyped],
        lost=abs(requests - report.requests),
    )
    if not report.drained:
        report.failures.append(
            f"unclean server shutdown: exits {report.server_exits}"
        )
    if report.profile == "lan":
        authed = report.outcomes.get("authenticated", 0)
        if authed != report.requests:
            report.failures.append(
                f"lan must authenticate everything: "
                f"{authed}/{report.requests}"
            )


def run_deployment_storm(
    topology: TopologySpec | None = None,
    profiles: tuple[str, ...] = DEFAULT_PROFILES,
    seed: int = 0,
    requests: int = 36,
    duration_seconds: float = 6.0,
    num_loadgens: int = 2,
    time_scale: float = 1.0,
    scratch_dir: str | Path | None = None,
    log=None,
) -> DeploymentReport:
    """Run one topology under each profile.

    ``scratch_dir`` holds the per-loadgen result JSONs (defaults to
    ``.deploy-scratch`` under the current directory).
    """
    base = topology if topology is not None else TopologySpec()
    scratch = Path(scratch_dir) if scratch_dir else Path(".deploy-scratch")
    reports = [
        run_profile(
            base.with_profile(name),
            seed=seed,
            requests=requests,
            duration_seconds=duration_seconds,
            num_loadgens=num_loadgens,
            time_scale=time_scale,
            scratch_dir=scratch,
            log=log,
        )
        for name in profiles
    ]
    return DeploymentReport(topology=base.describe(), profiles=reports)


# -- kill-9 crash-restart storm -------------------------------------------


@dataclass
class CrashRound:
    """One kill-9 / restart cycle against one victim server."""

    round_index: int
    victim: str
    acked_before_kill: int
    refused_during_outage: int
    recovered_records: int
    recovery_seconds: float
    lost_acknowledged: int
    reenrolled: int


@dataclass
class CrashStormReport:
    """Everything the crash-restart storm measured and gated on."""

    topology: str
    clients: int
    fsync: str
    rounds: list[CrashRound] = field(default_factory=list)
    acknowledged_total: int = 0
    lost_acknowledged: int = 0
    nonce_reuse_trips: int = 0
    false_authentications: int = 0
    auth_outcomes: dict[str, int] = field(default_factory=dict)
    restarts: int = 0
    backoff_seconds: float = 0.0
    durable_enroll_rps: float = 0.0
    lossy_enroll_rps: float = 0.0
    durability_overhead_pct: float = 0.0
    server_exits: dict[str, int | None] = field(default_factory=dict)
    drained: bool = False
    #: Gate invariants the storm broke, by name; empty is PASS.
    failures: list[str] = field(default_factory=list)


def _last_recovery_line(lines: list[str]) -> tuple[int, float]:
    """(records, seconds) from the newest DEPLOY-RECOVERED line."""
    for line in reversed(lines):
        match = _RECOVERED_REGEX.search(line)
        if match:
            return int(match.group(1)), float(match.group(2))
    return 0, 0.0


def _enroll_burst(
    remote: RemoteCAServer,
    client_ids: list[str],
    acked: dict[str, int],
    kill_at: int | None = None,
    on_kill=None,
) -> tuple[int, int]:
    """Drive one sequential enrollment burst; optionally kill -9 mid-burst.

    Returns ``(acked, refused)``. An enrollment counts as acknowledged
    only when its reply frame arrived — exactly the set the durability
    gate holds the server to after the crash. Refusals during the
    outage are typed transport failures (connection reset/refused), the
    honest answer for a dead server.
    """
    acked_count = 0
    refused = 0
    for position, client_id in enumerate(client_ids):
        if kill_at is not None and position == kill_at and on_kill is not None:
            on_kill()
            on_kill = None
        try:
            reply = remote.enroll(client_id)
        except TransportError:
            refused += 1
            continue
        acked[client_id] = reply.version
        acked_count += 1
    return acked_count, refused


def _timed_enroll_rate(remote: RemoteCAServer, client_ids: list[str]) -> float:
    """Acknowledged enrollments per second over one sequential burst."""
    started = time.monotonic()
    for client_id in client_ids:
        remote.enroll(client_id)
    wall = time.monotonic() - started
    return len(client_ids) / wall if wall > 0 else 0.0


def _auth_round(
    spec: TopologySpec, seed: int, addresses: list[tuple[str, int]], count: int
) -> dict[str, int]:
    """A few real authentications after recovery — the false-auth probe:
    one load-generator round per fleet slot, planted at depth 1 with a
    patient deadline, over an unimpaired link."""
    lan = spec.with_profile("lan")
    outcomes: dict[str, int] = {}
    for index in range(min(count, spec.clients)):
        entry = TraceEntry(
            index=index,
            client_index=index,
            offset_seconds=0.0,
            shell_depth=1,
            deadline_seconds=4.0 * spec.time_budget,
            tenant=tenant_for(index, spec.tenants),
        )
        key = _run_entry(entry, lan, seed, addresses)["outcome"]
        outcomes[key] = outcomes.get(key, 0) + 1
    return outcomes


def run_crash_storm(
    topology: TopologySpec | None = None,
    seed: int = 0,
    crashes: int = 3,
    auth_requests: int = 4,
    restart_policy: RestartPolicy | None = None,
    scratch_dir: str | Path | None = None,
    log=None,
) -> CrashStormReport:
    """Kill -9 servers mid-enrollment-burst; gate on zero durable loss.

    The storm enrolls the deterministic fleet over real TCP against
    WAL-backed servers, SIGKILLs a victim server halfway through each
    round's re-enrollment burst, restarts it under the supervisor's
    backoff/budget policy, and then holds the recovered server to three
    invariants: every *acknowledged* enrollment survives at its version
    or higher, the nonce-reuse tripwire never fires, and post-recovery
    authentications produce zero false auths. The report also prices
    durability: acknowledged-enrollment throughput under the topology's
    fsync policy versus a no-fsync lossy baseline.
    """
    say = log if log is not None else (lambda _msg: None)
    base = topology if topology is not None else TopologySpec(
        servers=1, wan_profile="lan", clients=8
    )
    if not base.durability:
        base = replace(base, durability="always")
    policy = restart_policy if restart_policy is not None else RestartPolicy(
        max_restarts=max(4, 2 * crashes), seed=seed
    )
    scratch = Path(scratch_dir) if scratch_dir else Path(".deploy-scratch")
    scratch.mkdir(parents=True, exist_ok=True)
    spec_json = spec_to_json(base)
    env = _child_env()
    report = CrashStormReport(
        topology=base.describe(),
        clients=base.clients,
        fsync=base.durability,
    )

    with ProcessSupervisor(
        grace_seconds=30.0, restart_policy=policy
    ) as supervisor:
        addresses = [
            _spawn_server(
                supervisor, f"server-{i}", spec_json, seed, env,
                data_dir=scratch / f"crash-server-{i}",
            )
            for i in range(base.servers)
        ]
        say(f"[crash] {base.servers} durable server(s) ready "
            f"(fsync={base.durability})")

        transports = [SocketTransport(h, p) for h, p in addresses]
        remotes = [RemoteCAServer(t) for t in transports]
        #: client_id -> last acknowledged version, per server index.
        acked: list[dict[str, int]] = [{} for _ in range(base.servers)]

        def slots_of(server_index: int) -> list[str]:
            return [
                client_identity(i)
                for i in range(base.clients)
                if i % base.servers == server_index
            ]

        # Phase 1: a clean timed burst — the durable throughput figure
        # and the acknowledged baseline every later gate measures against.
        started = time.monotonic()
        for index in range(base.servers):
            count, refused = _enroll_burst(
                remotes[index], slots_of(index), acked[index]
            )
            if refused:
                raise ProcessDied(
                    f"server-{index}",
                    None,
                    supervisor.output_of(f"server-{index}"),
                )
        wall = time.monotonic() - started
        report.durable_enroll_rps = base.clients / wall if wall > 0 else 0.0
        say(f"[crash] baseline burst: {base.clients} acked in {wall:.2f}s "
            f"({report.durable_enroll_rps:.1f}/s)")

        # Phase 2: kill -9 a victim mid-burst, restart, verify, repeat.
        for round_index in range(crashes):
            victim_index = round_index % base.servers
            victim = f"server-{victim_index}"
            burst = slots_of(victim_index)
            kill_at = max(1, len(burst) // 2)
            acked_now, refused = _enroll_burst(
                remotes[victim_index],
                burst,
                acked[victim_index],
                kill_at=kill_at,
                on_kill=lambda: supervisor.kill(victim),
            )
            addresses[victim_index] = _ready_address(supervisor.restart(victim))
            transports[victim_index].close()
            transports[victim_index] = SocketTransport(
                *addresses[victim_index]
            )
            remotes[victim_index] = RemoteCAServer(transports[victim_index])
            recovered, recovery_seconds = _last_recovery_line(
                supervisor.output_of(victim)
            )

            lost = 0
            for client_id, version in sorted(acked[victim_index].items()):
                reply = remotes[victim_index].enroll(client_id, probe=True)
                if reply.version < version:
                    lost += 1
            reenrolled, refused_after = _enroll_burst(
                remotes[victim_index], burst, acked[victim_index]
            )
            if refused_after:
                report.failures.append(
                    f"round {round_index}: {refused_after} enrollments "
                    f"refused after restart"
                )
            report.rounds.append(
                CrashRound(
                    round_index=round_index,
                    victim=victim,
                    acked_before_kill=acked_now,
                    refused_during_outage=refused,
                    recovered_records=recovered,
                    recovery_seconds=recovery_seconds,
                    lost_acknowledged=lost,
                    reenrolled=reenrolled,
                )
            )
            report.lost_acknowledged += lost
            say(f"[crash] round {round_index}: killed {victim} after "
                f"{acked_now} acks, recovered {recovered} records in "
                f"{recovery_seconds * 1000:.1f}ms, lost {lost}")

        report.acknowledged_total = sum(len(a) for a in acked)
        report.restarts = supervisor.restarts_total
        report.backoff_seconds = supervisor.backoff_seconds_total

        # Phase 3: the recovered deployment must still authenticate
        # honestly — this is what feeds the false-auth tripwire.
        report.auth_outcomes = _auth_round(
            base, seed, addresses, auth_requests
        )
        say(f"[crash] post-recovery auth: {report.auth_outcomes}")

        snapshots = [
            _scrape_metrics(host, port, include_tenants=False)
            for host, port in addresses
        ]
        for transport in transports:
            transport.close()

        # Phase 4: the lossy baseline — same burst, WAL without fsync.
        lossy_spec = replace(base, servers=1, durability="none")
        lossy_host, lossy_port = _spawn_server(
            supervisor, "lossy-0", spec_to_json(lossy_spec), seed, env,
            data_dir=scratch / "crash-lossy-0",
        )
        with SocketTransport(lossy_host, lossy_port) as lossy_transport:
            report.lossy_enroll_rps = _timed_enroll_rate(
                RemoteCAServer(lossy_transport),
                [client_identity(i) for i in range(base.clients)],
            )
        if report.lossy_enroll_rps > 0:
            report.durability_overhead_pct = 100.0 * (
                1.0 - report.durable_enroll_rps / report.lossy_enroll_rps
            )
        say(f"[crash] durable {report.durable_enroll_rps:.1f}/s vs lossy "
            f"{report.lossy_enroll_rps:.1f}/s "
            f"({report.durability_overhead_pct:+.1f}% cost)")

        report.server_exits = supervisor.teardown()
        report.drained = _drained(supervisor, report.server_exits, base.servers)

    counters = _merge_counters(s.counters for s in snapshots)
    report.nonce_reuse_trips = int(
        counters.get("durable_nonce_reuse_trips", 0)
    )
    report.false_authentications = sum(
        s.false_authentications for s in snapshots
    )
    _apply_crash_gates(report, auth_requests)
    return report


def _apply_crash_gates(report: CrashStormReport, auth_requests: int) -> None:
    report.failures += invariant_failures(
        false_authentications=report.false_authentications,
        untyped=[
            outcome
            for outcome, count in report.auth_outcomes.items()
            if "untyped:" in outcome
            for _ in range(count)
        ],
        lost=report.lost_acknowledged,
    )
    if report.nonce_reuse_trips:
        report.failures.append(
            f"nonce-reuse tripwire fired {report.nonce_reuse_trips} time(s)"
        )
    authed = report.auth_outcomes.get("authenticated", 0)
    expected = min(auth_requests, report.clients)
    if authed != expected:
        report.failures.append(
            f"post-recovery auth: {authed}/{expected} authenticated "
            f"({report.auth_outcomes})"
        )
    if not report.drained:
        report.failures.append(
            f"unclean final shutdown: exits {report.server_exits}"
        )
