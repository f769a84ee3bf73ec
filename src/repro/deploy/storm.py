"""One-command deployment storm.

:func:`run_deployment_storm` is the whole pipeline. For each WAN profile
it stands a topology up as real OS processes and runs five phases in
order, on the same servers:

1. spawn N WAL-backed servers on fresh data directories, each announcing
   its ephemeral port;
2. a timed enrollment burst over TCP: the durable enrollment rate, and
   the acknowledged baseline every later phase is held to;
3. ``crashes`` kill-9 rounds: SIGKILL a server halfway through a
   re-enrollment burst, restart it under the supervisor's backoff/budget
   policy, probe every acknowledged version, re-enroll;
4. M load generators replay their trace slices over real TCP, through
   the profile's emulated link, against the recovered servers;
5. scrape every server's :class:`~repro.net.concurrent.ServerMetrics`
   over the admin metrics frame, SIGTERM the deployment, and check that
   every server the storm spawned exited 0 having printed
   ``DEPLOY-DRAINED``.

The gates (:func:`profile_failures`) are deliberately blunt, per profile:

* zero false authentications (the server-side tripwire re-hashes each
  found seed against the submitted digest);
* zero untyped failures — every client-observed error maps to a typed
  bucket (``shed:*``, ``dropped``, ``corrupt``, ``busy``, ...) — and no
  request of the trace lost;
* no acknowledged enrollment lost across a kill-9, the nonce-reuse
  tripwire never fires, and a restarted server takes enrollments again;
* the ``lan`` profile authenticates 100% of the trace;
* every server drains and exits 0 under SIGTERM.

``repro deploy --storm`` (:mod:`repro.gates`) turns a report into the
one benchmark record.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.analysis.metrics import percentile
from repro.deploy.enrollment import client_identity
from repro.deploy.loadgen import spec_to_json
from repro.deploy.supervisor import (
    ProcessDied,
    ProcessSupervisor,
    RestartPolicy,
)
from repro.deploy.topology import TopologySpec
from repro.net.errors import TransportError
from repro.net.sockets import RemoteCAServer, SocketTransport
from repro.storm import invariant_failures

__all__ = [
    "ProfileReport",
    "DeploymentReport",
    "profile_failures",
    "run_deployment_storm",
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
    #: The trace phase: load generators spawned to load drained.
    wall_seconds: float
    server_counters: dict[str, float]
    shed_reasons: dict[str, int]
    false_authentications: int
    untyped: list[dict] = field(default_factory=list)
    #: One entry per kill-9 round: victim, acks before the kill, refusals
    #: during the outage, records recovered and how long recovery took,
    #: acknowledged versions lost, re-enrollments and refusals after.
    rounds: list[dict[str, Any]] = field(default_factory=list)
    acknowledged_total: int = 0
    lost_acknowledged: int = 0
    nonce_reuse_trips: int = 0
    restarts: int = 0
    backoff_seconds: float = 0.0
    durable_enroll_rps: float = 0.0
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
    spec: TopologySpec,
    seed: int,
    env: dict[str, str],
    data_dir: Path,
) -> tuple[str, int]:
    """Start one ``repro.deploy.server`` child; its announced address."""
    argv = [
        sys.executable, "-m", "repro.deploy.server",
        "--spec", spec_to_json(spec), "--seed", str(seed), "--port", "0",
        "--data-dir", str(data_dir),
    ]
    # Every run starts from an empty store: a data directory left by an
    # earlier run would be recovered as if this run had enrolled it.
    shutil.rmtree(data_dir, ignore_errors=True)
    managed = supervisor.spawn(name, argv, env=env, ready_regex=_READY_REGEX)
    return _ready_address(managed)


def _ready_address(managed) -> tuple[str, int]:
    match = managed.ready_match
    assert match is not None
    return match.group(1), int(match.group(2))


def _drained(supervisor: ProcessSupervisor, exits: dict[str, int | None]) -> bool:
    """Every process in ``exits`` exited 0 having printed ``DEPLOY-DRAINED``."""
    return all(
        code == 0
        and any("DEPLOY-DRAINED" in line for line in supervisor.output_of(name))
        for name, code in exits.items()
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


def _enroll_and_crash(
    supervisor: ProcessSupervisor,
    topology: TopologySpec,
    addresses: list[tuple[str, int]],
    crashes: int,
    report: ProfileReport,
    say,
) -> None:
    """Phases 2 and 3: the timed baseline burst, then the kill-9 rounds.

    A restarted server announces a new port, which replaces its entry in
    ``addresses``, so the load generators find the recovered servers.
    """
    profile = topology.wan_profile
    remotes = [RemoteCAServer(SocketTransport(h, p)) for h, p in addresses]
    #: client_id -> last acknowledged version, per server index.
    acked: list[dict[str, int]] = [{} for _ in addresses]

    def slots_of(server_index: int) -> list[str]:
        return [
            client_identity(i)
            for i in range(topology.clients)
            if i % topology.servers == server_index
        ]

    try:
        started = time.monotonic()
        for index, remote in enumerate(remotes):
            _count, refused = _enroll_burst(remote, slots_of(index), acked[index])
            if refused:
                raise ProcessDied(
                    f"server-{index}", None, supervisor.output_of(f"server-{index}")
                )
        wall = time.monotonic() - started
        report.durable_enroll_rps = topology.clients / wall if wall > 0 else 0.0
        say(f"[{profile}] baseline burst: {topology.clients} acked in "
            f"{wall:.2f}s ({report.durable_enroll_rps:.1f}/s)")

        for round_index in range(crashes):
            victim_index = round_index % topology.servers
            victim = f"server-{victim_index}"
            burst = slots_of(victim_index)
            acked_now, refused = _enroll_burst(
                remotes[victim_index],
                burst,
                acked[victim_index],
                kill_at=max(1, len(burst) // 2),
                on_kill=lambda: supervisor.kill(victim),
            )
            addresses[victim_index] = _ready_address(supervisor.restart(victim))
            remotes[victim_index].transport.close()
            remotes[victim_index] = RemoteCAServer(
                SocketTransport(*addresses[victim_index])
            )
            recovered, recovery_seconds = _last_recovery_line(
                supervisor.output_of(victim)
            )
            lost = sum(
                remotes[victim_index].enroll(client_id, probe=True).version
                < version
                for client_id, version in sorted(acked[victim_index].items())
            )
            reenrolled, refused_after = _enroll_burst(
                remotes[victim_index], burst, acked[victim_index]
            )
            report.rounds.append({
                "round_index": round_index,
                "victim": victim,
                "acked_before_kill": acked_now,
                "refused_during_outage": refused,
                "recovered_records": recovered,
                "recovery_seconds": recovery_seconds,
                "lost_acknowledged": lost,
                "reenrolled": reenrolled,
                "refused_after_restart": refused_after,
            })
            report.lost_acknowledged += lost
            say(f"[{profile}] round {round_index}: killed {victim} after "
                f"{acked_now} acks, recovered {recovered} records in "
                f"{recovery_seconds * 1000:.1f}ms, lost {lost}")
    finally:
        for remote in remotes:
            remote.transport.close()
    report.acknowledged_total = sum(len(a) for a in acked)
    report.restarts = supervisor.restarts_total
    report.backoff_seconds = supervisor.backoff_seconds_total


def run_profile(
    topology: TopologySpec,
    seed: int,
    requests: int,
    duration_seconds: float,
    num_loadgens: int,
    time_scale: float,
    scratch_dir: Path,
    crashes: int = 0,
    log=None,
) -> ProfileReport:
    """Stand up, enroll, crash, drive, scrape, and tear down one profile's
    deployment (the five phases of the module docstring)."""
    if crashes < 0:
        raise ValueError("crashes must be non-negative")
    if not topology.durability:
        raise ValueError("the storm's servers are WAL-backed: give an fsync policy")
    say = log if log is not None else (lambda _msg: None)
    spec_json = spec_to_json(topology)
    profile = topology.wan_profile
    scratch_dir.mkdir(parents=True, exist_ok=True)
    env = _child_env()
    report = ProfileReport(
        profile=profile, requests=0, outcomes={}, latency_p50_ms=0.0,
        latency_p99_ms=0.0, throughput_rps=0.0, wall_seconds=0.0,
        server_counters={}, shed_reasons={}, false_authentications=0,
    )
    policy = RestartPolicy(max_restarts=max(4, 2 * crashes), seed=seed)

    with ProcessSupervisor(grace_seconds=30.0, restart_policy=policy) as supervisor:
        servers = [f"server-{index}" for index in range(topology.servers)]
        addresses = [
            _spawn_server(
                supervisor, name, topology, seed, env,
                scratch_dir / f"{profile}-{name}",
            )
            for name in servers
        ]
        say(
            f"[{profile}] {topology.servers} server(s) ready at "
            + ", ".join(f"{h}:{p}" for h, p in addresses)
        )
        _enroll_and_crash(supervisor, topology, addresses, crashes, report, say)

        started = time.monotonic()
        output_paths: list[Path] = []
        loadgens = [f"loadgen-{index}" for index in range(num_loadgens)]
        for index, name in enumerate(loadgens):
            output = scratch_dir / f"loadgen-{profile}-{index}.json"
            output_paths.append(output)
            argv = [
                sys.executable, "-m", "repro.deploy.loadgen",
                "--spec", spec_json,
                "--seed", str(seed),
                "--requests", str(requests),
                "--duration", str(duration_seconds),
                "--loadgen-index", str(index),
                "--num-loadgens", str(num_loadgens),
                "--time-scale", str(time_scale),
                "--output", str(output),
            ]
            for host, port in addresses:
                argv.extend(["--server", f"{host}:{port}"])
            supervisor.spawn(name, argv, env=env)

        # Health-check the servers while the load drains; a dead server
        # is a storm failure, not a mystery of missing replies.
        loadgen_deadline = time.monotonic() + max(
            120.0, duration_seconds * time_scale * 4 + 120.0
        )
        for name in loadgens:
            supervisor.ensure_alive(*servers)
            remaining = max(1.0, loadgen_deadline - time.monotonic())
            code = supervisor.wait(name, timeout=remaining)
            if code != 0:
                raise ProcessDied(name, code, supervisor.output_of(name))
        report.wall_seconds = time.monotonic() - started
        say(f"[{profile}] load drained; scraping server metrics")

        snapshots = [
            _scrape_metrics(host, port, bool(topology.tenants))
            for host, port in addresses
        ]
        report.server_exits = {
            name: code
            for name, code in supervisor.teardown().items()
            if name not in loadgens
        }
        report.drained = _drained(supervisor, report.server_exits)

    records: list[dict] = []
    for path in output_paths:
        with open(path, encoding="utf-8") as handle:
            records.extend(json.load(handle)["records"])
    outcomes: dict[str, int] = {}
    for record in records:
        outcomes[record["outcome"]] = outcomes.get(record["outcome"], 0) + 1
    completed = [
        r["latency_seconds"] for r in records if r["outcome"] == "authenticated"
    ]
    wall = report.wall_seconds
    report.requests = len(records)
    report.outcomes = dict(sorted(outcomes.items()))
    report.untyped = [
        r for r in records
        if r["outcome"].startswith(("untyped:", "retries-exhausted:untyped:"))
    ]
    report.latency_p50_ms = percentile(completed, 50) * 1000.0 if completed else 0.0
    report.latency_p99_ms = percentile(completed, 99) * 1000.0 if completed else 0.0
    report.throughput_rps = len(completed) / wall if wall > 0 else 0.0
    report.server_counters = _merge_counters(s.counters for s in snapshots)
    report.shed_reasons = {
        k: int(v)
        for k, v in _merge_counters(s.shed_reasons for s in snapshots).items()
    }
    report.false_authentications = sum(s.false_authentications for s in snapshots)
    report.nonce_reuse_trips = int(
        report.server_counters.get("durable_nonce_reuse_trips", 0)
    )
    report.failures = profile_failures(report, requests)
    return report


def profile_failures(report: ProfileReport, requests: int) -> list[str]:
    """Every invariant ``report`` broke, by name; empty is PASS."""
    failures = invariant_failures(
        false_authentications=report.false_authentications,
        untyped=[r["outcome"] for r in report.untyped],
        lost=abs(requests - report.requests),
    )
    if report.lost_acknowledged:
        failures.append(
            f"{report.lost_acknowledged} acknowledged enrollment(s) lost "
            f"across kill-9"
        )
    if report.nonce_reuse_trips:
        failures.append(
            f"nonce-reuse tripwire fired {report.nonce_reuse_trips} time(s)"
        )
    for entry in report.rounds:
        if entry["refused_after_restart"]:
            failures.append(
                f"round {entry['round_index']}: "
                f"{entry['refused_after_restart']} enrollment(s) refused "
                f"after restart"
            )
    if report.profile == "lan":
        authed = report.outcomes.get("authenticated", 0)
        if authed != report.requests:
            failures.append(
                f"lan must authenticate everything: "
                f"{authed}/{report.requests}"
            )
    if not report.drained:
        failures.append(f"unclean server shutdown: exits {report.server_exits}")
    return failures


def run_deployment_storm(
    topology: TopologySpec | None = None,
    profiles: tuple[str, ...] = DEFAULT_PROFILES,
    seed: int = 0,
    requests: int = 36,
    duration_seconds: float = 6.0,
    num_loadgens: int = 2,
    time_scale: float = 1.0,
    crashes: int = 3,
    scratch_dir: str | Path | None = None,
    log=None,
) -> DeploymentReport:
    """Run one topology under each profile, ``crashes`` kill-9 rounds
    before each profile's trace.

    ``scratch_dir`` holds the servers' data directories and the
    per-loadgen result JSONs (defaults to ``.deploy-scratch`` under the
    current directory).
    """
    base = topology if topology is not None else TopologySpec(durability="always")
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
            crashes=crashes,
            log=log,
        )
        for name in profiles
    ]
    return DeploymentReport(topology=base.describe(), profiles=reports)
