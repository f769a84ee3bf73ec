"""Authentication storms under a named fault plan.

This is the integration layer the rest of :mod:`repro.reliability`
exists for: enroll a fleet, put every client behind a
:class:`~repro.reliability.transport.FaultyTransport`, serve them from
the deployed front door — a
:class:`~repro.net.concurrent.ConcurrentCAServer` on a two-``host``
fleet dispatcher — and report what happened as a
:class:`~repro.analysis.metrics.ResilienceReport`.

Clients run back to back, and a plan's device-failure episodes are
outages of the fleet's last device: it is killed before the client a
seeded window opens at and revived before the client it closes at (the
switch ``repro fleet --storm`` flips), and the storm holds each edge
until the dispatcher's health monitor has quarantined / reinstated the
device. That is what makes the compared part of the report — outcomes,
link faults, virtual latencies, quarantines and reinstatements — a pure
function of (fault spec, seed).

Every authenticated result is *re-verified* against the submitted digest
(`H(found seed) == M1`, :mod:`repro.reliability.tripwire`), so a false
authentication cannot hide: the acceptance bar for every fault plan is
``false_authentications == 0``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.analysis.metrics import ResilienceReport, percentile
from repro.core.search import RBCSearchService
from repro.fleet.engine import FleetSearchEngine
from repro.net.client import NetworkClient
from repro.net.concurrent import ConcurrentCAServer
from repro.net.errors import ServerBusy
from repro.net.messages import AuthenticationResult, DigestSubmission
from repro.net.transport import US_LINK, InProcessTransport
from repro.puf.image_db import EncryptedImageDatabase
from repro.refusals import Refusal
from repro.reliability.faults import FaultPlan, FaultSpec
from repro.reliability.retry import DeadlineExceeded, RetriesExhausted, RetryPolicy
from repro.reliability.transport import FaultyTransport
from repro.reliability.tripwire import VerifyingAuthority
from repro.storm import enrolled_fleet, set_device_alive

__all__ = [
    "StormConfig",
    "NAMED_PLANS",
    "run_storm",
    "run_named_storm",
]


@dataclass(frozen=True)
class StormConfig:
    """Shape of one authentication storm (independent of the fault spec)."""

    clients: int = 100
    max_queue: int = 64
    hash_name: str = "sha1"
    max_distance: int = 1
    noise_target_distance: int = 1
    num_cells: int = 2048
    retry: RetryPolicy = RetryPolicy(
        max_attempts=6,
        base_backoff_seconds=0.25,
        backoff_multiplier=2.0,
        max_backoff_seconds=2.0,
        jitter_fraction=0.2,
        attempt_deadline_seconds=None,
        deadline_seconds=45.0,
    )

    def __post_init__(self):
        if self.clients < 1:
            raise ValueError("clients must be positive")


#: Named fault plans the CLI and CI smoke runs refer to.
NAMED_PLANS: dict[str, tuple[FaultSpec, StormConfig]] = {
    "clean": (FaultSpec(name="clean"), StormConfig()),
    # The acceptance-criteria plan: a lossy WAN plus one device outage
    # six clients long.
    "lossy-wan": (
        FaultSpec(
            name="lossy-wan",
            drop_rate=0.20,
            corrupt_rate=0.05,
            duplicate_rate=0.02,
            reorder_rate=0.02,
            latency_spike_rate=0.03,
            latency_spike_seconds=1.0,
            device_failure_episodes=1,
            device_failure_length=6,
        ),
        StormConfig(clients=100),
    ),
    "flaky-device": (
        FaultSpec(
            name="flaky-device",
            device_failure_episodes=2,
            device_failure_length=5,
        ),
        StormConfig(clients=60),
    ),
    # Small and fast: CI's deterministic smoke run.
    "smoke": (
        FaultSpec(
            name="smoke",
            drop_rate=0.15,
            corrupt_rate=0.05,
            device_failure_episodes=1,
            device_failure_length=4,
        ),
        StormConfig(clients=12),
    ),
}


class _StormFrontend:
    """The concurrent server's refusals — anything carrying a
    :class:`~repro.refusals.Refusal` — as the link-level ``ServerBusy`` a
    :class:`NetworkClient` retries on."""

    def __init__(self, server: ConcurrentCAServer):
        self.handle_handshake = server.handle_handshake
        self._server = server

    def handle_digest(self, submission: DigestSubmission) -> AuthenticationResult:
        try:
            return self._server.handle_digest(submission)
        except Exception as exc:
            if Refusal.of(exc) is None:
                raise
            raise ServerBusy(str(exc)) from exc


def run_storm(
    spec: FaultSpec, seed: int, config: StormConfig | None = None
) -> ResilienceReport:
    """Run one deterministic authentication storm and report on it."""
    config = config if config is not None else StormConfig()
    plan = FaultPlan(spec, seed)
    episodes = plan.device_injector(horizon=max(40, config.clients)).episodes
    engine = FleetSearchEngine(
        "host",
        "host",
        hash_name=config.hash_name,
        batch_size=16384,
        max_queue=config.max_queue,
    )
    authority, clients = enrolled_fleet(
        seed,
        config.clients,
        EncryptedImageDatabase(b"chaos-master-key"),
        RBCSearchService(engine, max_distance=config.max_distance),
        hash_name=config.hash_name,
        num_cells=config.num_cells,
        noise_target_distance=config.noise_target_distance,
    )
    verifying = VerifyingAuthority(authority)
    fleet = engine.scheduler
    # The last device, so device 0 always survives to serve.
    victim = fleet.devices[-1]

    outcomes: dict[str, int] = {}
    fault_counts: dict[str, int] = {}
    latencies: list[float] = []
    attempts_total = 0
    max_attempts = 0
    outages = 0

    # The server serves on (and closes) the authority's own engine.
    with ConcurrentCAServer(verifying, max_queue=config.max_queue) as server:
        frontend = _StormFrontend(server)
        for index, (client_id, device, mask) in enumerate(clients):
            # Both edges of an outage fall between two clients' rounds,
            # and the next client meets a device the monitor has seen.
            down = any(lo <= index < hi for lo, hi in episodes)
            if down != victim.killed:
                set_device_alive(fleet, victim.name, not down)
                outages += down
            transport = FaultyTransport(
                InProcessTransport(latency=US_LINK),
                plan.transport_injector(index),
            )
            network_client = NetworkClient(
                device,
                transport,
                reference_mask=mask,
                retry_policy=config.retry,
                rng=plan.client_rng(index),
            )
            try:
                result = network_client.authenticate(frontend)
                outcome = "authenticated" if result.authenticated else "rejected"
            except DeadlineExceeded:
                outcome = "deadline_exceeded"
            except RetriesExhausted:
                outcome = "retries_exhausted"
            except ServerBusy:
                outcome = "server_busy"
            outcomes[outcome] = outcomes.get(outcome, 0) + 1
            for _index, _label, kind in transport.fault_log:
                fault_counts[kind] = fault_counts.get(kind, 0) + 1
            latencies.append(transport.elapsed_seconds)
            attempts_total += network_client.last_attempts
            max_attempts = max(max_attempts, network_client.last_attempts)
        # An outage the last client's round fell in ends with the storm.
        if victim.killed:
            set_device_alive(fleet, victim.name, True)
        dispatcher = fleet.snapshot()
        served = server.metrics.snapshot()

    succeeded = outcomes.get("authenticated", 0)
    return ResilienceReport(
        plan=spec.name,
        seed=seed,
        clients=config.clients,
        succeeded=succeeded,
        failed_clean=config.clients - succeeded,
        false_authentications=verifying.false_authentications,
        outcomes=tuple(sorted(outcomes.items())),
        faults_injected=tuple(sorted(fault_counts.items())),
        attempts_total=attempts_total,
        max_attempts_single_client=max_attempts,
        latency_p50=round(percentile(latencies, 50), 6),
        latency_p95=round(percentile(latencies, 95), 6),
        latency_max=round(max(latencies), 6),
        device_episodes=outages,
        quarantines=dispatcher["quarantines"],
        reinstatements=dispatcher["reinstatements"],
        # What the door counted on each settled request: the rows its
        # search committed, not what a device hashed and discarded.
        engine_seeds_hashed=served["seeds_hashed"],
        engine_shells_completed=served["shells_completed"],
        victim_batch_failures=victim.failures,
        redispatched_chunks=dispatcher["redispatched_chunks"],
    )


def run_named_storm(
    name: str, seed: int = 0, clients: int | None = None
) -> ResilienceReport:
    """Run one of :data:`NAMED_PLANS`, optionally resizing the fleet."""
    if name not in NAMED_PLANS:
        raise KeyError(
            f"unknown fault plan {name!r}; choices: {sorted(NAMED_PLANS)}"
        )
    spec, config = NAMED_PLANS[name]
    if clients is not None:
        config = replace(config, clients=clients)
    return run_storm(spec, seed, config)
