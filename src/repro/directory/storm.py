"""Shard-loss chaos storm: kill directory shards mid-serve, prove the CA degrades.

The scenario the directory layer exists for: an authentication burst is
in flight when a whole enrollment shard drops (crash / partition). The
storm drives four deterministic waves through a real
:class:`~repro.net.concurrent.ConcurrentCAServer` and asserts the
protocol-level invariants at each step:

* **wave 1 (healthy)** — every client authenticates;
* **wave 2 (one shard dark)** — the hot caches are dropped, one shard is
  killed, and every client must *still* authenticate: zero failures,
  zero sheds, and the report proves replica failover actually carried
  the reads (``failovers > 0``);
* **wave 3 (replica set dark)** — the dead shard's replica partner is
  killed too, so some keys have **no** live replica. Exactly those
  clients must be shed with the typed ``directory_unavailable``
  reason — never an unhandled error, never a false authentication —
  while every other client keeps authenticating. While the shards are
  dark, a few surviving clients re-enroll, deliberately diverging the
  dead replicas;
* **wave 4 (recovered)** — both shards revive, caches are dropped, and
  every client (including the previously doomed ones) authenticates
  again; the divergence planted in wave 3 must be healed through read
  repair (``read_repairs > 0``).

The shared false-authentication tripwire
(:mod:`repro.reliability.tripwire`) re-hashes every found seed against
the digest the client actually submitted — the zero-false-auth invariant
is checked locally, not assumed from ``authenticated`` flags.

Deterministic by construction: the fleet is seeded, the victim/partner
shards are chosen from the seeded ring, kill points are wave boundaries
(not wall-clock), the optional transient-timeout noise comes from a
seeded :class:`~repro.reliability.faults.FaultPlan`, and the shard
breakers run on the storm's own
:class:`~repro.reliability.faults.VirtualClock`, which moves only when
the directory backs off or the schedule waits out a recovery window —
never with how long a wave happened to take.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Collection, Iterator
from dataclasses import dataclass, field

from repro.core.search import RBCSearchService
from repro.directory.sharded import ShardedEnrollmentDirectory
from repro.engines.registry import build_engine
from repro.net.concurrent import ConcurrentCAServer
from repro.refusals import Refusal
from repro.reliability.faults import FaultPlan, FaultSpec, VirtualClock
from repro.reliability.tripwire import VerifyingAuthority
from repro.storm import (
    Request,
    drive,
    enrolled_fleet,
    invariant_failures,
    server_submit,
    summarize,
)

__all__ = [
    "ShardLossStormReport",
    "fleet_reader",
    "run_shard_loss_storm",
    "shard_loss_schedule",
]

WAVE_NAMES = ("healthy", "1-shard-down", "replica-set-down", "recovered")


@dataclass
class ShardLossStormReport:
    """Outcome of one shard-loss storm, renderable and assertable."""

    seed: int
    clients: int
    shards: int
    replication: int
    victim: str
    partner: str
    doomed: tuple[str, ...] = ()
    re_enrolled: tuple[str, ...] = ()
    #: Per-wave (authenticated, failed, shed) triples, in wave order.
    waves: list[tuple[int, int, int]] = field(default_factory=list)
    failovers: int = 0
    read_repairs: int = 0
    retries: int = 0
    shed_typed: int = 0
    shed_untyped: int = 0
    unexpected_sheds: int = 0
    #: Exception type names of wave futures that neither resolved nor shed.
    unhandled_errors: list[str] = field(default_factory=list)
    false_authentications: int = 0
    shed_rate: float = 0.0
    shed_ceiling: float = 0.5
    wall_seconds: float = 0.0
    directory_snapshot: dict = field(default_factory=dict)
    server_metrics: dict = field(default_factory=dict)

    @property
    def failures(self) -> list[str]:
        """The storm's hard invariants that broke, by name; empty is PASS."""
        failures = invariant_failures(
            false_authentications=self.false_authentications,
            untyped=self.shed_untyped,
        )
        if self.unhandled_errors:
            failures.append(
                "unhandled error(s) instead of a typed refusal: "
                + ", ".join(sorted(set(self.unhandled_errors)))
            )
        for name, wave in zip(WAVE_NAMES, self.waves, strict=True):
            # replica set dark: exactly the doomed keys shed, everyone
            # else keeps authenticating; every other wave serves everyone.
            shed = len(self.doomed) if name == "replica-set-down" else 0
            expected = (self.clients - shed, 0, shed)
            if tuple(wave) != expected:
                failures.append(
                    f"wave {name}: authenticated/failed/shed {tuple(wave)}, "
                    f"expected {expected}"
                )
        if not self.failovers:
            failures.append(
                "no replica failover: the 1-shard-down wave ran on luck"
            )
        if self.unexpected_sheds:
            failures.append(
                f"{self.unexpected_sheds} client(s) with a live replica "
                "were shed"
            )
        if self.shed_rate > self.shed_ceiling:
            failures.append(
                f"shed rate {self.shed_rate:.2f} over the ceiling "
                f"{self.shed_ceiling:.2f}"
            )
        if not self.read_repairs:
            failures.append(
                "no read repair: the divergence planted while the shards "
                "were dark was not healed"
            )
        return failures

    def render(self) -> str:
        lines = [
            f"shard-loss storm  seed={self.seed}  "
            f"shards={self.shards} r={self.replication}  "
            f"clients={self.clients}",
            f"  victim: {self.victim}  partner: {self.partner}  "
            f"doomed keys: {len(self.doomed)}",
        ]
        for name, triple in zip(WAVE_NAMES, self.waves):
            ok, failed, shed = triple
            lines.append(
                f"  wave {name}: authenticated={ok} failed={failed} "
                f"shed={shed}"
            )
        lines += [
            f"  failovers: {self.failovers}  read repairs: "
            f"{self.read_repairs}  retries: {self.retries}",
            f"  sheds: {self.shed_typed} typed / {self.shed_untyped} "
            f"untyped  unexpected: {self.unexpected_sheds}  "
            f"rate: {self.shed_rate:.2f} (ceiling {self.shed_ceiling:.2f})",
            f"  false auths: {self.false_authentications}",
            f"  wall: {self.wall_seconds:.2f}s  "
            f"verdict: {'FAIL' if self.failures else 'PASS'}",
        ]
        return "\n".join(lines)


def _pick_victims(
    directory: ShardedEnrollmentDirectory, client_ids: list[str]
) -> tuple[str, str, list[str]]:
    """The victim shard, its partner, and the keys doomed by losing both.

    The victim is the shard holding the most primaries (so wave 2 forces
    real failover traffic); the partner is the most common second
    replica among the victim's keys (so wave 3 dooms at least one key).
    """
    primaries: dict[str, list[str]] = {}
    for client_id in client_ids:
        replicas = directory.replicas_for(client_id)
        primaries.setdefault(replicas[0], []).append(client_id)
    victim = max(primaries, key=lambda name: len(primaries[name]))
    partner_counts: dict[str, int] = {}
    for client_id in primaries[victim]:
        for name in directory.replicas_for(client_id)[1:]:
            partner_counts[name] = partner_counts.get(name, 0) + 1
    partner = max(partner_counts, key=lambda name: partner_counts[name])
    dead = {victim, partner}
    doomed = [
        client_id
        for client_id in client_ids
        if set(directory.replicas_for(client_id)) <= dead
    ]
    return victim, partner, doomed


def shard_loss_schedule(
    directory: ShardedEnrollmentDirectory,
    victim: str,
    partner: str,
    sleep: Callable[[float], None] = time.sleep,
) -> Iterator[str]:
    """Walk the fault schedule after the healthy wave: kill the victim,
    kill its partner, revive both — caches dropped at each step. Yields
    the wave name (``WAVE_NAMES[1:]``) for the caller to serve under.
    ``sleep`` is how a recovery window passes on the directory's clock."""
    directory.kill_shard(victim)
    directory.drop_hot_caches()
    yield "1-shard-down"
    directory.kill_shard(partner)
    directory.drop_hot_caches()
    yield "replica-set-down"
    directory.revive_shard(victim)
    directory.revive_shard(partner)
    # A revived shard is re-admitted only once its tripped breaker's
    # recovery window has passed: wait it out rather than count on the
    # caller's work in between taking that long.
    sleep(directory.shard(victim).breaker.recovery_seconds)
    directory.drop_hot_caches()
    yield "recovered"


def fleet_reader(authority, fleet, max_distance: int) -> Callable[[], list[Request]]:
    """``read()``: one fresh PUF read per enrolled device, as requests.

    Challenges are deterministic per client; capturing them here, at
    enrollment, keeps the handshake off the directory, so a pass measures
    the *search path's* degradation, not the handshake's.
    """
    challenges = {
        client_id: authority.issue_challenge(client_id)
        for client_id, _device, _mask in fleet
    }
    return lambda: [
        Request(
            client_id,
            device.respond(challenges[client_id], reference_mask=mask),
            max_distance,
            device.noise_target_distance,
        )
        for client_id, device, mask in fleet
    ]


def run_shard_loss_storm(
    seed: int = 0,
    clients: int = 24,
    shards: int = 8,
    replication: int = 2,
    hash_name: str = "sha1",
    num_cells: int = 1024,
    max_distance: int = 2,
    cache_capacity: int = 64,
    shard_timeout_rate: float = 0.05,
    shed_ceiling: float = 0.5,
    re_enroll: int = 3,
) -> ShardLossStormReport:
    """Four deterministic waves against a sharded directory; see module doc."""
    # On ``time.monotonic`` a breaker's 50 ms window races the waves: at
    # seed 0 the partner's re-admission probe draws an injected timeout,
    # and whether the breaker is probed once more — and ends ``closed``,
    # ``half_open`` or ``open`` — depends on how long the recovered wave
    # takes on the day. Here time passes only where the storm says so.
    clock = VirtualClock()
    directory = ShardedEnrollmentDirectory(
        master_key=b"storm-master-k!!",
        shards=shards,
        replication=replication,
        cache_capacity=cache_capacity,
        fault_plan=FaultPlan(
            FaultSpec(shard_timeout_rate=shard_timeout_rate), seed
        ),
        clock=clock.now,
        sleep=clock.advance,
    )
    # Noise target one below the search radius: the PUF's natural noise
    # occasionally lands a read a bit past the injected target, and the
    # storm's invariants are about the directory, not about
    # honest-failure statistics.
    authority, fleet = enrolled_fleet(
        seed,
        clients,
        directory,
        RBCSearchService(
            build_engine("sched", hash_name=hash_name, batch_size=16384),
            max_distance=max_distance,
        ),
        hash_name=hash_name,
        num_cells=num_cells,
        noise_target_distance=max(0, max_distance - 1),
        reads=32,
    )
    read = fleet_reader(authority, fleet, max_distance)
    masks = {client_id: mask for client_id, _device, mask in fleet}
    client_ids = sorted(masks)
    victim, partner, doomed = _pick_victims(directory, client_ids)
    report = ShardLossStormReport(
        seed=seed,
        clients=clients,
        shards=shards,
        replication=replication,
        victim=victim,
        partner=partner,
        doomed=tuple(doomed),
        shed_ceiling=shed_ceiling,
    )

    tripwire = VerifyingAuthority(authority)
    start = time.perf_counter()
    # The server serves on (and closes) the authority's own engine.
    with ConcurrentCAServer(tripwire, max_queue=max(64, clients)) as server:

        def wave(expect_shed: Collection[str] = ()) -> None:
            outcomes = drive(server_submit(server, tripwire), read(), timeout=120.0)
            stats = summarize(outcomes)
            typed = stats["shed_reasons"].get(Refusal.DIRECTORY_UNAVAILABLE.reason, 0)
            report.shed_typed += typed
            report.shed_untyped += stats["shed"] - typed
            report.unexpected_sheds += sum(
                o.status == "shed" and o.request.client_id not in expect_shed
                for o in outcomes
            )
            report.unhandled_errors += stats["errors"] + ["lost"] * stats["lost"]
            report.waves.append(
                (stats["found"], stats["count"] - stats["found"] - stats["shed"],
                 stats["shed"])
            )

        wave()  # healthy; then the three faulted waves of the module doc
        for name in shard_loss_schedule(directory, victim, partner, clock.advance):
            wave(doomed if name == "replica-set-down" else ())
            if name == "replica-set-down":
                # While the shards are dark, survivors re-enroll: their
                # writes land only on live replicas, planting divergence
                # the recovery wave must heal through read repair.
                stale_writes = [
                    c for c in client_ids
                    if c not in doomed
                    and {victim, partner} & set(directory.replicas_for(c))
                ][:re_enroll]
                for client_id in stale_writes:
                    authority.enroll(client_id, masks[client_id])
                report.re_enrolled = tuple(stale_writes)
                repairs_before = directory.read_repairs
        report.read_repairs = directory.read_repairs - repairs_before

        report.server_metrics = server.metrics.snapshot()

    report.wall_seconds = time.perf_counter() - start
    report.false_authentications = tripwire.false_authentications
    report.failovers = directory.failovers
    report.retries = directory.retries
    total = 4 * clients
    report.shed_rate = (report.shed_typed + report.shed_untyped) / total
    report.directory_snapshot = directory.snapshot()
    return report
