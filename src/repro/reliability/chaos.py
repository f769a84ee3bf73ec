"""Authentication storms under a named fault plan.

This is the integration layer the rest of :mod:`repro.reliability`
exists for: enroll a fleet, put every client behind a
:class:`~repro.reliability.transport.FaultyTransport`, serve them from a
:class:`~repro.net.server.CAServer` whose search service is a
:class:`~repro.reliability.failover.FailoverSearchService` (flaky fast
engine behind a circuit breaker, CPU baseline behind it) — or, with
``StormConfig(scheduler=True)``, from a
:class:`~repro.net.concurrent.ConcurrentCAServer` on its dispatcher —
and report what happened as a deterministic
:class:`~repro.analysis.metrics.ResilienceReport`.

Clients run back-to-back on one storm timeline: each client's virtual
link time advances the shared :class:`VirtualClock` that the breaker's
recovery timer reads. That serialization is what makes the whole report
— including the breaker's transition history — a pure function of
(fault spec, seed).

Every authenticated result is *re-verified* against the submitted digest
(`H(found seed) == M1`, :mod:`repro.reliability.tripwire`), so a false
authentication cannot hide: the acceptance bar for every fault plan is
``false_authentications == 0``.
"""

from __future__ import annotations

from contextlib import ExitStack
from dataclasses import dataclass, replace

from repro.analysis.metrics import ResilienceReport, percentile
from repro.net.client import NetworkClient
from repro.net.concurrent import ConcurrentCAServer
from repro.net.errors import ServerBusy
from repro.net.messages import AuthenticationResult, DigestSubmission
from repro.net.server import CAServer
from repro.net.transport import US_LINK, InProcessTransport
from repro.puf.image_db import EncryptedImageDatabase
from repro.reliability.breaker import CircuitBreaker
from repro.reliability.failover import FailoverSearchService
from repro.reliability.faults import FaultPlan, FaultSpec, VirtualClock
from repro.reliability.retry import DeadlineExceeded, RetriesExhausted, RetryPolicy
from repro.reliability.transport import FaultyTransport
from repro.reliability.tripwire import VerifyingAuthority
from repro.engines import TelemetryHooks, build_engine
from repro.devices.flaky import FlakyEngine
from repro.sched.errors import RequestShed
from repro.storm import enrolled_fleet

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
    #: Serve the storm through the concurrent front door and its
    #: deadline-aware continuous-batching dispatcher (a ``sched``
    #: engine) instead of the serial server. The transport-level fault
    #: plan still applies in full; device-failure episodes do not (the
    #: dispatcher owns its device and has no failover behind it).
    scheduler: bool = False
    hash_name: str = "sha1"
    max_distance: int = 1
    noise_target_distance: int = 1
    num_cells: int = 2048
    breaker_failure_threshold: int = 3
    breaker_recovery_seconds: float = 5.0
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
    # The acceptance-criteria plan: a lossy WAN plus one device-failure
    # episode long enough to walk the breaker through open -> half-open
    # (re-open on a sick probe) -> closed.
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
            device_slow_rate=0.2,
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
        StormConfig(clients=12, breaker_recovery_seconds=3.0),
    ),
}


class _StormFrontend:
    """The concurrent server's refusals as the link-level ``ServerBusy``
    a :class:`NetworkClient` retries on."""

    def __init__(self, server: ConcurrentCAServer):
        self.handle_handshake = server.handle_handshake
        self._server = server

    def handle_digest(self, submission: DigestSubmission) -> AuthenticationResult:
        try:
            return self._server.handle_digest(submission)
        except (RuntimeError, RequestShed) as exc:
            raise ServerBusy(str(exc)) from exc


def run_storm(
    spec: FaultSpec, seed: int, config: StormConfig | None = None
) -> ResilienceReport:
    """Run one deterministic authentication storm and report on it."""
    config = config if config is not None else StormConfig()
    plan = FaultPlan(spec, seed)
    clock = VirtualClock()

    authority, clients = enrolled_fleet(
        seed,
        config.clients,
        EncryptedImageDatabase(b"chaos-master-key"),
        hash_name=config.hash_name,
        num_cells=config.num_cells,
        noise_target_distance=config.noise_target_distance,
    )
    device_injector = plan.device_injector(horizon=max(40, config.clients))
    # One telemetry tap across both backends: the report's engine
    # counters cover every batch either engine actually ran.
    telemetry = TelemetryHooks()
    primary = FlakyEngine(
        build_engine(
            "batch", hash_name=config.hash_name, batch_size=16384,
            hooks=telemetry,
        ),
        device_injector,
        name="accelerator",
    )
    fallback = build_engine(
        "batch", hash_name=config.hash_name, batch_size=4096, hooks=telemetry
    )
    breaker = CircuitBreaker(
        failure_threshold=config.breaker_failure_threshold,
        recovery_seconds=config.breaker_recovery_seconds,
        clock=clock.now,
    )
    service = FailoverSearchService(
        primary,
        fallback,
        breaker,
        max_distance=config.max_distance,
    )
    authority.search_service = service
    verifying = VerifyingAuthority(authority)

    outcomes: dict[str, int] = {}
    fault_counts: dict[str, int] = {}
    latencies: list[float] = []
    attempts_total = 0
    max_attempts = 0

    with ExitStack() as stack:
        # Clients run back to back, so the serial server is the storm's
        # own timeline; the dispatcher storm puts the concurrent front
        # door (and its one-device engine, closed with it) under the
        # same link faults.
        frontend: CAServer | _StormFrontend = CAServer(verifying)
        if config.scheduler:
            engine = build_engine(
                "sched",
                hash_name=config.hash_name,
                batch_size=16384,
                hooks=telemetry,
                max_queue=config.max_queue,
            )
            server = ConcurrentCAServer(
                verifying, max_queue=config.max_queue, scheduler=engine
            )
            frontend = _StormFrontend(stack.enter_context(server))
        for index, (client_id, device, mask) in enumerate(clients):
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
            # The next client arrives after this one's round completed.
            clock.advance(transport.elapsed_seconds)

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
        breaker_transitions=breaker.transition_names(),
        primary_searches=service.primary_searches,
        fallback_searches=service.fallback_searches,
        device_failures=primary.failures_injected,
        engine_seeds_hashed=telemetry.seeds_hashed,
        engine_shells_completed=telemetry.shells_completed,
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
