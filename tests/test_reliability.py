"""Fault injection and resilience: plans, transport faults, retries,
circuit breaker, flaky devices, dead-rank recovery."""

import numpy as np
import pytest

from repro.core import RBCSearchService
from repro.core.protocol import ClientDevice
from repro.devices.flaky import DeviceFailure, FlakyDeviceModel
from repro.devices.gpu import GPUModel
from repro.hashes.sha1 import sha1
from repro.net.client import NetworkClient
from repro.net.errors import MessageCorrupted, MessageDropped
from repro.net.messages import (
    AuthenticationResult,
    DigestSubmission,
    HandshakeRequest,
    HandshakeResponse,
)
from repro.net.server import CAServer
from repro.net.transport import US_LINK, InProcessTransport
from repro.reliability.breaker import BreakerState, CircuitBreaker, CircuitOpenError
from repro.reliability.faults import (
    MESSAGE_FAULTS,
    FaultPlan,
    FaultSpec,
    ScriptedFaultInjector,
    VirtualClock,
)
from repro.reliability.retry import (
    DeadlineExceeded,
    RetriesExhausted,
    RetryPolicy,
)
from repro.reliability.transport import FaultyTransport
from repro.runtime.cluster import ClusterSearchExecutor, Interconnect


LOSSY = FaultSpec(
    name="lossy",
    drop_rate=0.2,
    corrupt_rate=0.1,
    duplicate_rate=0.05,
    reorder_rate=0.05,
    latency_spike_rate=0.05,
)


class TestFaultSpec:
    def test_rates_validated(self):
        with pytest.raises(ValueError, match="drop_rate"):
            FaultSpec(drop_rate=1.5)
        with pytest.raises(ValueError, match="sum"):
            FaultSpec(drop_rate=0.6, corrupt_rate=0.5)
        with pytest.raises(ValueError):
            FaultSpec(device_failure_length=0)

    def test_message_fault_rate_totals(self):
        assert LOSSY.message_fault_rate == pytest.approx(0.45)
        assert FaultSpec().message_fault_rate == 0.0


class TestFaultPlanDeterminism:
    def test_same_seed_same_message_schedule(self):
        draws = []
        for _ in range(2):
            injector = FaultPlan(LOSSY, seed=42).transport_injector(3)
            draws.append([injector.next(f"m{i}") for i in range(200)])
        assert draws[0] == draws[1]
        assert any(kind is not None for kind in draws[0])

    def test_streams_are_order_independent(self):
        plan = FaultPlan(LOSSY, seed=7)
        first = [plan.transport_injector(5).next("x") for _ in range(1)]
        plan.transport_injector(0).next("warm")  # unrelated stream
        again = [FaultPlan(LOSSY, seed=7).transport_injector(5).next("x")]
        assert first == again

    def test_different_seeds_diverge(self):
        a = FaultPlan(LOSSY, seed=1).transport_injector(0)
        b = FaultPlan(LOSSY, seed=2).transport_injector(0)
        assert [a.next("m") for _ in range(100)] != [
            b.next("m") for _ in range(100)
        ]

    def test_device_episodes_deterministic_and_contiguous(self):
        spec = FaultSpec(device_failure_episodes=2, device_failure_length=5)
        one = FaultPlan(spec, seed=3).device_injector(horizon=100)
        two = FaultPlan(spec, seed=3).device_injector(horizon=100)
        assert one.episodes == two.episodes
        assert len(one.episodes) == 2
        for lo, hi in one.episodes:
            assert hi - lo == 5
        faults = [one.next() for _ in range(100)]
        assert faults.count("fail") >= 5  # episodes may overlap

    def test_cluster_injector_never_kills_everyone(self):
        spec = FaultSpec(dead_rank_count=10)
        injector = FaultPlan(spec, seed=0).cluster_injector(ranks=4)
        assert len(injector.dead_ranks) == 3
        survivors = set(range(4)) - injector.dead_ranks
        assert all(injector.straggle_factor(r) == 1.0 for r in survivors)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan(LOSSY, seed=-1)


class TestVirtualClock:
    def test_advances_monotonically(self):
        clock = VirtualClock()
        clock.advance(1.5)
        clock.advance(0.5)
        assert clock.now() == pytest.approx(2.0)
        with pytest.raises(ValueError):
            clock.advance(-1.0)


class TestMessageFraming:
    @pytest.mark.parametrize(
        "message",
        [
            HandshakeRequest(client_id="c0"),
            HandshakeResponse(
                client_id="c0", address=0, window=64,
                usable_mask=HandshakeResponse.pack_usable(
                    np.ones(64, dtype=bool)
                ),
                bit_count=64, hash_name="sha1",
            ),
            DigestSubmission(client_id="c0", digest=sha1(b"seed")),
            AuthenticationResult(
                client_id="c0", authenticated=True, distance=1,
                public_key=b"\x01" * 16, search_seconds=0.25, timed_out=False,
            ),
        ],
    )
    def test_roundtrip(self, message):
        assert type(message).from_bytes(message.to_bytes()) == message

    def test_single_bit_flip_detected(self):
        raw = DigestSubmission(client_id="c0", digest=sha1(b"x")).to_bytes()
        for position in range(0, len(raw), 7):
            corrupted = bytearray(raw)
            corrupted[position] ^= 0x04
            with pytest.raises(MessageCorrupted):
                DigestSubmission.from_bytes(bytes(corrupted))

    def test_wrong_type_rejected(self):
        raw = HandshakeRequest(client_id="c0").to_bytes()
        with pytest.raises(MessageCorrupted, match="expected"):
            DigestSubmission.from_bytes(raw)


class TestFaultyTransport:
    def _transport(self, script):
        return FaultyTransport(
            InProcessTransport(latency=US_LINK), ScriptedFaultInjector(script)
        )

    def test_drop_charges_timeout_and_raises(self):
        transport = self._transport(["drop"])
        with pytest.raises(MessageDropped):
            transport.deliver("msg", b"payload")
        assert transport.elapsed_seconds == pytest.approx(
            US_LINK.timeout_seconds
        )
        assert transport.fault_log == [(0, "msg", "drop")]

    def test_corruption_is_caught_by_framing(self):
        transport = self._transport(["corrupt"])
        raw = HandshakeRequest(client_id="c0").to_bytes()
        delivered = transport.deliver("msg", raw)
        assert delivered != raw
        with pytest.raises(MessageCorrupted):
            HandshakeRequest.from_bytes(delivered)

    def test_duplicate_costs_double(self):
        clean = self._transport([None])
        clean.deliver("msg", b"x" * 100)
        duplicated = self._transport(["duplicate"])
        duplicated.deliver("msg", b"x" * 100)
        assert duplicated.elapsed_seconds == pytest.approx(
            2 * clean.elapsed_seconds
        )
        assert duplicated.messages_delivered == 2

    def test_latency_spike_and_reorder_charge_extra(self):
        spec = FaultSpec(latency_spike_rate=0.0, latency_spike_seconds=1.5)
        injector = ScriptedFaultInjector(["latency-spike", "reorder"])
        injector.spec = spec
        transport = FaultyTransport(InProcessTransport(latency=US_LINK), injector)
        transport.deliver("a", b"x")
        after_spike = transport.elapsed_seconds
        transport.deliver("b", b"x")
        per_message = US_LINK.message_cost(1)
        assert after_spike == pytest.approx(per_message + 1.5)
        assert transport.elapsed_seconds == pytest.approx(
            after_spike + per_message + US_LINK.round_trip_seconds / 2
        )

    def test_reset_clears_everything(self):
        transport = self._transport(["drop"])
        with pytest.raises(MessageDropped):
            transport.deliver("msg", b"x")
        transport.reset()
        assert transport.elapsed_seconds == 0.0
        assert transport.fault_log == []


class TestRetryPolicy:
    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(
            base_backoff_seconds=0.25, backoff_multiplier=2.0,
            max_backoff_seconds=1.0, jitter_fraction=0.0,
        )
        waits = [policy.backoff_seconds(i) for i in range(1, 6)]
        assert waits == [0.25, 0.5, 1.0, 1.0, 1.0]

    def test_jitter_stays_in_band(self):
        policy = RetryPolicy(
            base_backoff_seconds=1.0, jitter_fraction=0.2,
            max_backoff_seconds=1.0,
        )
        rng = np.random.default_rng(0)
        for _ in range(100):
            assert 0.8 <= policy.backoff_seconds(1, rng) <= 1.2

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter_fraction=2.0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_multiplier=0.5)


class TestCircuitBreaker:
    def test_full_lifecycle_on_virtual_clock(self):
        clock = VirtualClock()
        breaker = CircuitBreaker(
            failure_threshold=2, recovery_seconds=10.0, clock=clock.now
        )
        assert breaker.state == BreakerState.CLOSED
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == BreakerState.OPEN
        assert not breaker.allow_request()

        clock.advance(10.0)
        assert breaker.state == BreakerState.HALF_OPEN
        assert breaker.allow_request()  # the probe
        breaker.record_failure()  # probe hit a sick backend
        assert breaker.state == BreakerState.OPEN

        clock.advance(10.0)
        assert breaker.allow_request()
        breaker.record_success()
        assert breaker.state == BreakerState.CLOSED
        assert breaker.transition_names() == (
            "closed->open",
            "open->half_open",
            "half_open->open",
            "open->half_open",
            "half_open->closed",
        )

    def test_success_resets_consecutive_count(self):
        breaker = CircuitBreaker(failure_threshold=3)
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == BreakerState.CLOSED

    def test_half_open_admits_limited_probes(self):
        clock = VirtualClock()
        breaker = CircuitBreaker(
            failure_threshold=1, recovery_seconds=1.0,
            half_open_probes=1, clock=clock.now,
        )
        breaker.record_failure()
        clock.advance(1.0)
        assert breaker.allow_request()
        assert not breaker.allow_request()  # only one probe at a time
        assert breaker.calls_refused >= 1

    def test_call_wraps_and_raises_when_open(self):
        breaker = CircuitBreaker(failure_threshold=1)
        with pytest.raises(RuntimeError, match="boom"):
            breaker.call(lambda: (_ for _ in ()).throw(RuntimeError("boom")))
        with pytest.raises(CircuitOpenError):
            breaker.call(lambda: "never runs")
        assert breaker.failures_recorded == 1


class TestFlakyDeviceModel:
    def test_scheduled_failure_raises(self):
        spec = FaultSpec(device_failure_episodes=1, device_failure_length=3)
        injector = FaultPlan(spec, seed=5).device_injector(horizon=20)
        model = FlakyDeviceModel(GPUModel(), injector)
        lo, _hi = injector.episodes[0]
        for _ in range(lo):
            assert model.search_time("sha1", 2) > 0
        with pytest.raises(DeviceFailure):
            model.search_time("sha1", 2)
        assert model.failures_injected == 1

    def test_slowdown_stretches_time_and_energy(self):
        spec = FaultSpec(device_slow_rate=1.0, device_slow_factor=4.0)
        injector = FaultPlan(spec, seed=0).device_injector(horizon=10)
        flaky = FlakyDeviceModel(GPUModel(), injector)
        baseline = GPUModel().simulate_search("sha1", 3)
        throttled = flaky.simulate_search("sha1", 3)
        assert throttled.search_seconds == pytest.approx(
            4.0 * baseline.search_seconds
        )
        assert throttled.energy_joules == pytest.approx(
            4.0 * baseline.energy_joules
        )
        assert "throttled" in throttled.device


class TestNetworkClientRetries:
    def _client_and_server(self, script, authority_fixture, **client_kwargs):
        authority, client, mask = authority_fixture
        transport = FaultyTransport(
            InProcessTransport(latency=US_LINK), ScriptedFaultInjector(script)
        )
        network_client = NetworkClient(
            client, transport, reference_mask=mask, **client_kwargs
        )
        return network_client, CAServer(authority), transport

    def test_recovers_after_drops(self, small_authority):
        # First round dies on the handshake, second succeeds.
        network_client, server, transport = self._client_and_server(
            ["drop"], small_authority,
            retry_policy=RetryPolicy(max_attempts=3, jitter_fraction=0.0),
        )
        result = network_client.authenticate(server)
        assert result.authenticated
        assert network_client.last_attempts == 2
        # The dropped message's timeout was charged to the clock.
        assert transport.elapsed_seconds > US_LINK.timeout_seconds

    def test_corrupted_frame_triggers_retry(self, small_authority):
        network_client, server, _ = self._client_and_server(
            ["corrupt"], small_authority,
            retry_policy=RetryPolicy(max_attempts=3, jitter_fraction=0.0),
        )
        assert network_client.authenticate(server).authenticated

    def test_retries_exhausted_is_typed(self, small_authority):
        network_client, server, _ = self._client_and_server(
            ["drop"] * 20, small_authority,
            retry_policy=RetryPolicy(max_attempts=3, jitter_fraction=0.0),
        )
        with pytest.raises(RetriesExhausted) as excinfo:
            network_client.authenticate(server)
        assert excinfo.value.attempts == 3
        assert isinstance(excinfo.value.last_error, MessageDropped)

    def test_deadline_exceeded_is_typed(self, small_authority):
        network_client, server, _ = self._client_and_server(
            ["drop"] * 20, small_authority,
            retry_policy=RetryPolicy(
                max_attempts=10, jitter_fraction=0.0,
                deadline_seconds=3.0,
            ),
        )
        with pytest.raises(DeadlineExceeded):
            network_client.authenticate(server)

    def test_backoff_charged_to_virtual_clock(self, small_authority):
        with_backoff, server, transport = self._client_and_server(
            ["drop"], small_authority,
            retry_policy=RetryPolicy(
                max_attempts=3, base_backoff_seconds=0.5, jitter_fraction=0.0
            ),
        )
        with_backoff.authenticate(server)
        charged = [
            seconds for label, _size, seconds in transport.log
            if label == "retry-backoff"
        ]
        assert charged == [pytest.approx(0.5)]

    def test_default_policy_matches_legacy_max_attempts(self, small_authority):
        authority, client, mask = small_authority
        network_client = NetworkClient(
            client, InProcessTransport(latency=US_LINK),
            reference_mask=mask, max_attempts=2,
        )
        assert network_client.retry_policy.max_attempts == 2
        assert network_client.retry_policy.base_backoff_seconds == 0.0


class TestClusterFaults:
    def _cheap_cluster(self, ranks, injector=None):
        return ClusterSearchExecutor(
            ranks, "sha1", batch_size=2048,
            interconnect=Interconnect(),
            fault_injector=injector,
        )

    def _target(self, distance=1):
        base = b"\x33" * 32
        if distance == 0:
            return base, sha1(base)
        flipped = bytearray(base)
        flipped[0] ^= 0x01
        return base, sha1(bytes(flipped))

    class _Faults:
        def __init__(self, dead=(), stragglers=None):
            self.dead_ranks = frozenset(dead)
            self._stragglers = dict(stragglers or {})

        @property
        def straggler_ranks(self):
            return tuple(sorted(self._stragglers))

        def straggle_factor(self, rank):
            return self._stragglers.get(rank, 1.0)

    def test_dead_rank_slices_recovered(self):
        base, digest = self._target(distance=1)
        healthy = self._cheap_cluster(3).search(base, digest, 1)
        assert healthy.found
        owner = healthy.cluster.finder_rank
        # Kill the rank that found it: survivors must recover the slice.
        result = self._cheap_cluster(
            3, self._Faults(dead=[owner])
        ).search(base, digest, 1)
        assert result.found
        assert result.seed == healthy.seed
        assert result.cluster.finder_rank != owner
        assert result.cluster.dead_ranks == (owner,)
        assert result.cluster.recovery_seconds > 0.0
        assert result.elapsed_seconds > healthy.elapsed_seconds

    def test_dead_rank_zero_transfers_distance_zero(self):
        base, digest = self._target(distance=0)
        result = self._cheap_cluster(
            3, self._Faults(dead=[0])
        ).search(base, digest, 1)
        assert result.found and result.distance == 0
        assert result.cluster.finder_rank != 0

    def test_straggler_slows_wall_time(self):
        base, digest = self._target(distance=1)
        healthy = self._cheap_cluster(2).search(base, digest, 1)
        finder = healthy.cluster.finder_rank
        slowed = self._cheap_cluster(
            2, self._Faults(stragglers={finder: 50.0})
        ).search(base, digest, 1)
        assert slowed.found
        assert slowed.cluster.straggler_ranks == (finder,)
        # Wall time includes the straggled finder's stretched elapsed time.
        assert slowed.elapsed_seconds >= slowed.cluster.per_rank_seconds[finder]
        assert slowed.cluster.per_rank_seconds[finder] > 0.0

    def test_whole_cluster_dead_raises(self):
        with pytest.raises(RuntimeError, match="surviving"):
            self._cheap_cluster(
                2, self._Faults(dead=[0, 1])
            ).search(b"\x00" * 32, sha1(b"\x00" * 32), 1)

    def test_per_rank_accounting_marks_dead_ranks(self):
        base, digest = self._target(distance=1)
        result = self._cheap_cluster(
            3, self._Faults(dead=[1])
        ).search(base, digest, 1)
        assert result.cluster.per_rank_hashed[1] == 0
        assert result.cluster.per_rank_seconds[1] == 0.0


class TestSessionNoncePreservedOnBackendFailure:
    def test_transient_failure_does_not_burn_nonce(self):
        from repro import quick_setup
        from repro.net.session import SecureClientSession, SessionManager

        mac_key = b"enrollment-secret-0!"
        authority, client, mask = quick_setup(
            seed=5, max_distance=1, noise_target_distance=1
        )
        manager = SessionManager(authority, rng=np.random.default_rng(0))
        manager.install_mac_key("client-0", mac_key)
        session = SecureClientSession(client, mac_key)
        challenge = manager.issue_challenge("client-0")
        digest = session.respond(challenge, reference_mask=mask)

        original = manager._nonce_bound_search
        calls = {"n": 0}

        def failing_once(client_id, nonce, bound_digest):
            calls["n"] += 1
            if calls["n"] == 1:
                raise DeviceFailure("sim", 0)
            return original(client_id, nonce, bound_digest)

        manager._nonce_bound_search = failing_once
        try:
            with pytest.raises(DeviceFailure):
                manager.accept_digest("client-0", challenge.nonce, digest)
            # The nonce survived the backend failure: a straight retry
            # with the same challenge succeeds instead of being treated
            # as a replay.
            result = manager.accept_digest(
                "client-0", challenge.nonce, digest
            )
        finally:
            manager._nonce_bound_search = original
        assert result.authenticated
