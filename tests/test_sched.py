"""The deadline-aware continuous-batching scheduler (the ``sched:`` engine).

Three layers of coverage: the pure pieces (the shell cursor's work
order and the scheduling policy) as plain unit tests; the dispatcher's invariants on the ``sched`` spec — a
one-host fleet — (everything admitted is completed or shed with a
reason, byte-identical equivalence with the unscheduled engine, deadline
shedding, deterministic close, a dying dispatcher thread never hangs
callers); and the serving integration (scheduler-backed
``ConcurrentCAServer`` with shed/preemption counters).
"""

import threading
import time
from types import SimpleNamespace

import numpy as np
import pytest

from repro._bitutils import SEED_BITS, flip_bits
from repro.combinatorics.binomial import binomial
from repro.engines import EngineWrapper, build_engine, engine_target
from repro.fleet.batcher import ShellCursor
from repro.fleet.policy import (
    DEEP_LANE,
    EXPRESS_LANE,
    SHALLOW_LANE,
    PolicyConfig,
    SchedulingPolicy,
)
from repro.net.errors import ServerClosed
from repro.refusals import Refusal, RequestShed

RNG = np.random.default_rng(20260805)
BASE_SEED = RNG.bytes(32)


def sched_engine(**options):
    """A ``sched`` engine: the dispatcher over one host."""
    return build_engine("sched", hash_name="sha1", **options)


def _drain(cursor, width):
    served = []
    while not cursor.exhausted:
        served.append(cursor.take(width))
    return served


class TestWorkUnits:
    def test_chunks_cover_every_shell_exactly(self):
        # Shells 0 and 1 are hashed at admission; a cursor starts at 2.
        assert _drain(ShellCursor(1), 1 << 12) == []
        for max_distance in (2, 3):
            served = _drain(ShellCursor(max_distance), 1 << 12)
            for distance in range(2, max_distance + 1):
                shell = [(lo, hi) for d, lo, hi in served if d == distance]
                # Contiguous, non-overlapping, complete cover.
                assert shell[0][0] == 0
                assert shell[-1][1] == binomial(SEED_BITS, distance)
                for prev, cur in zip(shell, shell[1:]):
                    assert prev[1] == cur[0]
                assert all(hi > lo for lo, hi in shell)

    def test_execution_order_is_protocol_order(self):
        served = _drain(ShellCursor(3), 1 << 14)
        keys = [(d, lo) for d, lo, _hi in served]
        assert keys == sorted(keys)


def _req(seq, lane, deadline=None, remaining=1000):
    return SimpleNamespace(
        seq=seq, lane=lane, deadline=deadline, remaining_work=remaining
    )


class TestPolicy:
    def test_lane_assignment(self):
        policy = SchedulingPolicy()
        assert policy.lane_of(1, None) == SHALLOW_LANE
        assert policy.lane_of(2, None) == SHALLOW_LANE
        assert policy.lane_of(3, None) == DEEP_LANE
        assert policy.lane_of(4, 2.5) == EXPRESS_LANE

    def test_admission_saturation(self):
        policy = SchedulingPolicy()
        reason = policy.admission_shed_reason(
            queue_depth=8, max_queue=8, deadline_seconds=None, throughput=None
        )
        assert reason is Refusal.SATURATED

    def test_admission_deadline_unmeetable(self):
        policy = SchedulingPolicy()
        # At 10 H/s even the d<=1 min-cover (257 candidates) takes ~26s.
        reason = policy.admission_shed_reason(
            queue_depth=0, max_queue=8, deadline_seconds=1.0, throughput=10.0
        )
        assert reason is Refusal.DEADLINE_UNMEETABLE

    def test_admission_is_conservative_without_throughput(self):
        policy = SchedulingPolicy()
        # No observed throughput yet: admit, let run-time expiry decide.
        assert (
            policy.admission_shed_reason(
                queue_depth=0,
                max_queue=8,
                deadline_seconds=1e-9,
                throughput=None,
            )
            is None
        )

    def test_edf_between_lanes(self):
        policy = SchedulingPolicy()
        runnable = [
            _req(0, DEEP_LANE, remaining=10**9),
            _req(1, EXPRESS_LANE, deadline=5.0),
            _req(2, SHALLOW_LANE, remaining=100),
        ]
        order = policy.lane_order(runnable, recent_lanes=[])
        assert order[0] == EXPRESS_LANE
        # Without deadlines, cheapest lane outranks the deep backlog.
        assert order.index(SHALLOW_LANE) < order.index(DEEP_LANE)

    def test_shortest_expected_work_within_lane(self):
        policy = SchedulingPolicy()
        runnable = [
            _req(0, SHALLOW_LANE, remaining=500),
            _req(1, SHALLOW_LANE, remaining=100),
            _req(2, SHALLOW_LANE, remaining=100),
        ]
        picked = policy.pick(runnable, recent_lanes=[])
        assert picked.remaining_work == 100
        assert picked.seq == 1  # FIFO tie-break

    def test_fairness_cap_rotates_hogging_lane(self):
        policy = SchedulingPolicy(PolicyConfig(fairness_cap=0.5))
        runnable = [
            _req(0, SHALLOW_LANE, remaining=100),
            _req(1, DEEP_LANE, remaining=10**9),
        ]
        # Shallow took every recent batch while deep waited: rotate.
        order = policy.lane_order(runnable, recent_lanes=[SHALLOW_LANE] * 10)
        assert order[0] == DEEP_LANE
        # Under the cap, preference is restored.
        order = policy.lane_order(
            runnable, recent_lanes=[SHALLOW_LANE, DEEP_LANE, DEEP_LANE]
        )
        assert order[0] == SHALLOW_LANE

    def test_fill_order_prefers_deadlines_then_cheap_work(self):
        policy = SchedulingPolicy()
        primary = _req(0, DEEP_LANE, remaining=10**9)
        urgent = _req(1, EXPRESS_LANE, deadline=1.0)
        cheap = _req(2, SHALLOW_LANE, remaining=10)
        costly = _req(3, SHALLOW_LANE, remaining=10**6)
        order = policy.fill_order([costly, cheap, urgent, primary], primary)
        assert order == [primary, urgent, cheap, costly]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PolicyConfig(fairness_cap=0.0)
        with pytest.raises(ValueError):
            PolicyConfig(deep_distance=0)
        with pytest.raises(ValueError):
            PolicyConfig(fairness_window=0)
        with pytest.raises(ValueError):
            PolicyConfig(shed_slack=0.0)
        with pytest.raises(ValueError):
            PolicyConfig(aging_seconds=0.0)
        assert PolicyConfig(aging_seconds=None).aging_seconds is None


def _aging_req(seq, lane, submitted_at, deadline=None, remaining=1000):
    return SimpleNamespace(
        seq=seq,
        lane=lane,
        deadline=deadline,
        remaining_work=remaining,
        submitted_at=submitted_at,
        aged=False,
    )


class TestAging:
    def test_promotion_past_threshold_is_one_way(self):
        policy = SchedulingPolicy(PolicyConfig(aging_seconds=10.0))
        old = _aging_req(0, DEEP_LANE, submitted_at=0.0)
        fresh = _aging_req(1, SHALLOW_LANE, submitted_at=95.0)
        assert policy.apply_aging([old, fresh], now=100.0) == 1
        assert old.aged and old.lane == EXPRESS_LANE
        assert not fresh.aged and fresh.lane == SHALLOW_LANE
        # One-way: a promoted request is never re-promoted (or demoted).
        assert policy.apply_aging([old, fresh], now=200.0) == 1
        assert fresh.aged  # now past the threshold too
        assert policy.apply_aging([old, fresh], now=300.0) == 0

    def test_aging_disabled_with_none(self):
        policy = SchedulingPolicy(PolicyConfig(aging_seconds=None))
        old = _aging_req(0, DEEP_LANE, submitted_at=0.0)
        assert policy.apply_aging([old], now=1e9) == 0
        assert not old.aged

    def test_aged_lane_outranks_deadlines(self):
        policy = SchedulingPolicy(PolicyConfig(aging_seconds=1.0))
        starving = _aging_req(
            0, DEEP_LANE, submitted_at=0.0, remaining=10**9
        )
        policy.apply_aging([starving], now=5.0)
        urgent = _aging_req(
            1, EXPRESS_LANE, submitted_at=4.9, deadline=0.001
        )
        order = policy.lane_order([urgent, starving], recent_lanes=[])
        # Both ride the express lane now; the aged key puts the lane
        # first regardless of the rotation history.
        assert order[0] == EXPRESS_LANE
        picked = policy.pick([urgent, starving], recent_lanes=[])
        assert picked is starving

    def test_fill_order_prefers_aged_requests(self):
        policy = SchedulingPolicy(PolicyConfig(aging_seconds=1.0))
        starving = _aging_req(
            0, DEEP_LANE, submitted_at=0.0, remaining=10**9
        )
        policy.apply_aging([starving], now=5.0)
        cheap = _aging_req(1, SHALLOW_LANE, submitted_at=4.9, remaining=10)
        primary = _aging_req(2, SHALLOW_LANE, submitted_at=4.9, remaining=50)
        order = policy.fill_order([cheap, starving, primary], primary)
        assert order == [primary, starving, cheap]

    def test_starving_deep_request_bounded_waits_under_pressure(self):
        """Satellite: with the fairness rotation disabled (cap=1.0), only
        aging saves a deep request from starving under constant shallow
        pressure — and it must get service within a bounded wait."""
        engine = sched_engine(
            batch_size=4096,
            fairness_cap=1.0,
            aging_seconds=0.3,
        )
        try:
            absent = engine_target(engine, RNG.bytes(32))
            # d=4 (~174M seeds) cannot be swept inside the 2 s budget
            # even with every mask plan already warm from earlier tests,
            # so the request always runs to its budget after promotion.
            deep = engine.submit(
                BASE_SEED, absent, 4, time_budget=2.0, client_id="starved"
            )
            rng = np.random.default_rng(31)
            start = time.perf_counter()
            # Constant shallow pressure until the promotion lands (the
            # deep request would starve forever without it at cap=1.0).
            while (
                time.perf_counter() - start < 20.0
                and engine.scheduler.snapshot()["aged_promotions"] == 0
            ):
                tickets = [
                    engine.submit(
                        BASE_SEED,
                        engine_target(engine, _planted(1, rng)),
                        1,
                        client_id=f"pressure-{i}",
                    )
                    for i in range(3)
                ]
                for ticket in tickets:
                    assert ticket.result(timeout=60).found
            result = deep.result(timeout=60)
            snapshot = engine.scheduler.snapshot()
        finally:
            engine.close(drain=False)
        assert snapshot["aged_promotions"] >= 1
        # Promoted into express (nothing else here carries a deadline)
        # and served to its budget: a bounded wait, not starvation.
        assert snapshot["batches_by_lane"].get(EXPRESS_LANE, 0) >= 1
        assert result.timed_out and not result.found


@pytest.fixture
def engine():
    engine = sched_engine(batch_size=4096)
    yield engine
    engine.close()


def _planted(distance, rng):
    positions = sorted(
        int(p) for p in rng.choice(SEED_BITS, size=distance, replace=False)
    )
    return flip_bits(BASE_SEED, positions)


class TestSchedulerCore:
    def test_byte_identical_to_unscheduled_engine(self, engine):
        reference = build_engine("batch:sha1,bs=4096")
        rng = np.random.default_rng(7)
        for distance in (0, 1, 2):
            client_seed = _planted(distance, rng)
            target = engine_target(engine, client_seed)
            scheduled = engine.search(BASE_SEED, target, 2)
            unscheduled = reference.search(BASE_SEED, target, 2)
            assert scheduled.found and unscheduled.found
            assert scheduled.seed == unscheduled.seed == client_seed
            assert scheduled.distance == unscheduled.distance == distance
            assert scheduled.seeds_hashed == unscheduled.seeds_hashed
            assert [(s.distance, s.seeds_hashed) for s in scheduled.shells] == [
                (s.distance, s.seeds_hashed) for s in unscheduled.shells
            ]

    def test_concurrent_results_stay_byte_identical(self, engine):
        rng = np.random.default_rng(11)
        requests = []
        for index in range(6):
            distance = (index % 3)
            client_seed = _planted(distance, rng)
            target = engine_target(engine, client_seed)
            requests.append((client_seed, distance, target))
        tickets = [
            engine.submit(BASE_SEED, target, 2, client_id=f"c{i}")
            for i, (_seed, _d, target) in enumerate(requests)
        ]
        for ticket, (client_seed, distance, _t) in zip(tickets, requests):
            result = ticket.result(timeout=120)
            assert result.found
            assert result.seed == client_seed
            assert result.distance == distance

    def test_admitted_implies_completed_or_shed(self, engine):
        """The core accounting invariant, exercised under concurrency."""
        rng = np.random.default_rng(23)
        tickets = []
        admission_sheds = 0
        for index in range(8):
            client_seed = _planted(index % 3, rng)
            target = engine_target(engine, client_seed)
            # A mix: generous budgets, zero budgets, tight deadlines.
            budget = None if index % 2 == 0 else (0 if index == 3 else 30.0)
            deadline = 0.001 if index == 5 else None
            try:
                tickets.append(
                    engine.submit(
                        BASE_SEED,
                        target,
                        2,
                        time_budget=budget,
                        deadline_seconds=deadline,
                        client_id=f"mix-{index}",
                    )
                )
            except RequestShed as exc:
                # Shed at the door (unmeetable deadline once throughput
                # has been observed) — still a counted, reasoned shed.
                assert exc.reason
                admission_sheds += 1
        settled = 0
        for ticket in tickets:
            try:
                ticket.result(timeout=120)
                settled += 1
            except RequestShed as exc:
                assert exc.reason
                settled += 1
        assert settled == len(tickets)
        snapshot = engine.scheduler.snapshot()
        assert snapshot["admitted"] == len(tickets)
        assert (
            snapshot["admitted"]
            == snapshot["completed"] + snapshot["shed"] - admission_sheds
        )
        assert snapshot["queue_depth"] == 0

    def test_negative_distance_is_refused(self, engine):
        with pytest.raises(ValueError):
            engine.submit(BASE_SEED, b"\x00" * 20, max_distance=-1)
        assert engine.scheduler.snapshot()["admitted"] == 0

    def test_zero_budget_times_out_uniformly(self, engine):
        absent = engine_target(engine, RNG.bytes(32))
        result = engine.search(BASE_SEED, absent, 2, time_budget=0)
        assert result.found is False
        assert result.timed_out is True
        assert result.seed is None and result.distance is None

    def test_deadline_shed_at_admission(self, engine):
        engine.scheduler.prime_throughput(1e6)
        absent = engine_target(engine, RNG.bytes(32))
        with pytest.raises(RequestShed) as excinfo:
            engine.submit(
                BASE_SEED, absent, 2, deadline_seconds=1e-7, client_id="hopeless"
            )
        assert excinfo.value.refusal is Refusal.DEADLINE_UNMEETABLE
        assert engine.scheduler.snapshot()["shed_reasons"] == {
            Refusal.DEADLINE_UNMEETABLE.reason: 1
        }

    def test_saturation_shed(self):
        engine = sched_engine(batch_size=4096, max_queue=1)
        try:
            absent = engine_target(engine, RNG.bytes(32))
            first = engine.submit(BASE_SEED, absent, 3, client_id="a")
            try:
                with pytest.raises(RequestShed) as excinfo:
                    # Race-free: admission is checked under the lock, and
                    # the first request cannot finish instantly (d<=3 on
                    # sha1, 2.8 M rows, takes well over the submit-to-
                    # submit gap even while its scan holds every core).
                    engine.submit(BASE_SEED, absent, 2, client_id="b")
                assert excinfo.value.refusal is Refusal.SATURATED
            finally:
                first.result(timeout=120)
        finally:
            engine.close()

    def test_scheduling_stats_attached(self, engine):
        # Shell 2: shells 0 and 1 are hashed at the door, on no device.
        client_seed = _planted(2, np.random.default_rng(3))
        target = engine_target(engine, client_seed)
        ticket = engine.submit(
            BASE_SEED, target, 2, deadline_seconds=60.0, client_id="stats"
        )
        result = ticket.result(timeout=120)
        snapshot = engine.scheduler.snapshot()
        assert result.found and result.elapsed_seconds > 0.0
        # A deadline routes the request into the express lane.
        assert set(snapshot["batches_by_lane"]) == {EXPRESS_LANE}
        assert snapshot["batches"] >= 1 and snapshot["completed"] == 1

    def test_on_schedule_hook_fires(self):
        engine = sched_engine(batch_size=4096)
        try:
            client_seed = _planted(2, np.random.default_rng(5))
            target = engine_target(engine, client_seed)
            result = engine.search(BASE_SEED, target, 2)
            snapshot = engine.scheduler.snapshot()
        finally:
            engine.close()
        assert result.found and snapshot["batches"] >= 1
        assert snapshot["completed"] == 1

    def test_describe_round_trips_the_spec(self, engine):
        assert engine.describe().startswith("sched:sha1")
        rebuilt = build_engine(engine.describe())
        try:
            assert rebuilt.batch_size == engine.batch_size
            assert rebuilt.describe() == engine.describe()
        finally:
            rebuilt.close()

    def test_sched_spec_is_the_one_host_fleet(self):
        """One ``host`` token: one device, hashing on every core of the
        cpuset (on one without the compiled kernel)."""
        from repro.fleet import FleetSearchEngine
        from repro.fleet.engine import default_worker_count
        from repro.hashes import compiled

        engine = build_engine("sched:sha1,bs=4096")
        try:
            assert isinstance(engine, FleetSearchEngine)
            (device,) = engine.scheduler.devices
            assert device.name == "host-0"
            assert device.workers == (
                default_worker_count() if compiled.load() else 1
            )
            client_seed = _planted(2, np.random.default_rng(17))
            result = engine.search(
                BASE_SEED, engine_target(engine, client_seed), 2
            )
            assert result.engine == "sched:sha1,bs=4096"
            assert result.found
            devices = engine.scheduler.snapshot()["devices"].values()
            assert sum(device["batches"] for device in devices) >= 1
        finally:
            engine.close()


class TestSchedulerClose:
    def test_close_is_idempotent_and_rejects_new_work(self):
        engine = sched_engine(batch_size=4096)
        engine.close()
        engine.close()
        with pytest.raises(ServerClosed):
            engine.submit(BASE_SEED, b"\x00" * 20, 1)

    def test_close_drains_in_flight_requests(self):
        engine = sched_engine(batch_size=4096)
        client_seed = _planted(1, np.random.default_rng(9))
        target = engine_target(engine, client_seed)
        ticket = engine.submit(BASE_SEED, target, 2, client_id="drain")
        engine.close(drain=True)
        result = ticket.result(timeout=1.0)  # already resolved
        assert result.found and result.seed == client_seed

    def test_close_without_drain_sheds_with_shutdown_reason(self):
        engine = sched_engine(batch_size=4096)
        absent = engine_target(engine, RNG.bytes(32))
        tickets = [
            engine.submit(BASE_SEED, absent, 2, client_id=f"s{i}")
            for i in range(3)
        ]
        engine.close(drain=False)
        reasons = set()
        for ticket in tickets:
            assert ticket.done()
            try:
                ticket.result(timeout=1.0)
            except RequestShed as exc:
                reasons.add(exc.reason)
        # At least the queued tail was shed at shutdown (the request
        # holding the device may have completed first).
        assert reasons <= {Refusal.SHUTDOWN.reason}
        assert engine.scheduler.snapshot()["queue_depth"] == 0


class TestFairness:
    def test_deep_search_cannot_monopolize_the_device(self):
        """With a deep straggler in flight, shallow work still lands.

        The straggler is an exhaustive d <= 4 search (177 M rows, seconds
        on every core): an exhaustive d <= 3 one (2.8 M rows) can end
        within the first 0.2 s on a host device hashing on two cores."""
        engine = sched_engine(batch_size=4096)
        try:
            absent = engine_target(engine, RNG.bytes(32))
            deep = engine.submit(
                BASE_SEED, absent, 4, time_budget=30.0, client_id="deep"
            )
            # Let the deep search take the device first.
            time.sleep(0.2)
            rng = np.random.default_rng(13)
            t0 = time.perf_counter()
            # d <= 2 is the shallow lane, and its shell 2 needs the device.
            shallow_tickets = [
                engine.submit(
                    BASE_SEED,
                    engine_target(engine, _planted(2, rng)),
                    2,
                    client_id=f"shallow-{i}",
                )
                for i in range(3)
            ]
            for ticket in shallow_tickets:
                assert ticket.result(timeout=60).found
            shallow_wall = time.perf_counter() - t0
            # Every shallow ticket settled ahead of the deep one submitted
            # before them: a FIFO server would have made them wait it out.
            deep_pending = not deep.done()
            snapshot = engine.scheduler.snapshot()
        finally:
            engine.close(drain=False)
        assert deep_pending
        # The d=2 searches finished while d=4 still had seconds of work
        # queued — generous margin so slow CI cannot flake this.
        assert shallow_wall < 20.0
        assert snapshot["batches_by_lane"].get("shallow", 0) >= 1
        assert snapshot["batches_by_lane"].get("deep", 0) >= 1
        assert snapshot["preempted"] >= 1


class TestServingIntegration:
    @pytest.fixture
    def fleet(self):
        from repro.core import (
            CertificateAuthority,
            RBCSearchService,
            RegistrationAuthority,
        )
        from repro.core.protocol import ClientDevice
        from repro.core.salting import HashChainSalt
        from repro.keygen.interface import get_keygen
        from repro.puf.image_db import EncryptedImageDatabase
        from repro.puf.model import SRAMPuf
        from repro.puf.ternary import enroll_with_masking
        from repro.runtime.executor import BatchSearchExecutor

        authority = CertificateAuthority(
            search_service=RBCSearchService(
                BatchSearchExecutor("sha1", batch_size=8192), max_distance=1
            ),
            salt=HashChainSalt(),
            keygen=get_keygen("aes-128"),
            registration_authority=RegistrationAuthority(),
            image_db=EncryptedImageDatabase(b"sched-master-key"),
            hash_name="sha1",
        )
        clients = []
        for i in range(4):
            puf = SRAMPuf(num_cells=2048, stable_error=0.001, seed=4100 + i)
            mask = enroll_with_masking(
                puf, 0, 2048, reads=48, instability_threshold=0.02
            )
            client_id = f"sc{i}"
            authority.enroll(client_id, mask)
            device = ClientDevice(
                client_id, puf, noise_target_distance=1,
                rng=np.random.default_rng(100 + i),
            )
            clients.append((client_id, device, mask))
        return authority, clients

    def test_scheduler_backed_server_authenticates_fleet(self, fleet):
        from repro.net.concurrent import ConcurrentCAServer

        authority, clients = fleet
        scheduler = sched_engine(batch_size=8192)
        with ConcurrentCAServer(authority, scheduler=scheduler) as server:
            futures = []
            for client_id, device, mask in clients:
                challenge = authority.issue_challenge(client_id)
                digest = device.respond(challenge, reference_mask=mask)
                futures.append(server.submit(client_id, digest))
            results = [f.result(timeout=120) for f in futures]
        assert all(r.authenticated for r in results)
        assert all(r.public_key for r in results)
        snapshot = server.metrics.snapshot()
        assert snapshot["completed"] == len(clients)
        assert snapshot["authenticated"] == len(clients)
        assert snapshot["queue_depth_peak"] >= 1
        # The RA really saw the keys (issued from the dispatcher path).
        assert all(
            client_id in authority.registration_authority
            for client_id, _d, _m in clients
        )

    def test_scheduler_backed_server_sheds_observably(self, fleet):
        from repro.net.concurrent import ConcurrentCAServer

        authority, clients = fleet
        scheduler = sched_engine(batch_size=8192)
        scheduler.scheduler.prime_throughput(1e6)
        with ConcurrentCAServer(authority, scheduler=scheduler) as server:
            client_id = clients[0][0]
            with pytest.raises(RequestShed):
                server.submit(client_id, b"\x00" * 20, deadline_seconds=1e-7)
            assert server.metrics.snapshot()["shed"] == 1
            # The shed request's client is not stuck "in flight".
            assert client_id not in server._in_flight_clients

    def test_server_close_settles_scheduled_futures(self, fleet):
        from repro.net.concurrent import ConcurrentCAServer

        authority, clients = fleet
        scheduler = sched_engine(batch_size=8192)
        server = ConcurrentCAServer(authority, scheduler=scheduler)
        client_id, device, mask = clients[0]
        challenge = authority.issue_challenge(client_id)
        digest = device.respond(challenge, reference_mask=mask)
        future = server.submit(client_id, digest)
        server.close(wait=True)
        assert future.done()
        assert future.result(timeout=1.0).authenticated

    def test_deadline_rides_the_wire(self, fleet):
        """Satellite (a): TTL field survives the framed round trip."""
        from repro.net.messages import DigestSubmission

        submission = DigestSubmission(
            client_id="sc0", digest=b"\x01" * 20, deadline_seconds=2.5
        )
        decoded = DigestSubmission.from_bytes(submission.to_bytes())
        assert decoded.deadline_seconds == pytest.approx(2.5)
        assert decoded.digest == submission.digest

    def test_deadline_field_is_backward_tolerant(self):
        import json
        import zlib

        from repro.net.messages import DigestSubmission

        # A frame from a sender predating the deadline field.
        body = {"client_id": "old", "digest": "00" * 20,
                "type": "digest_submission"}
        canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
        body["crc"] = f"{zlib.crc32(canonical.encode()):08x}"
        raw = json.dumps(body, sort_keys=True, separators=(",", ":")).encode()
        decoded = DigestSubmission.from_bytes(raw)
        assert decoded.deadline_seconds is None

    def test_fifo_mode_clamps_budget_and_stamps_deadline(self, fleet):
        authority, clients = fleet
        engine = _BudgetRecorder.install(authority)
        client_id, device, mask = clients[0]
        challenge = authority.issue_challenge(client_id)
        digest = device.respond(challenge, reference_mask=mask)
        result = authority.run_search(client_id, digest, deadline_seconds=15.0)
        assert result.found
        # The engine ran under min(T, deadline).
        assert engine.budgets == [min(authority.search_service.time_threshold, 15.0)]

    def test_network_client_attaches_deadline(self, fleet):
        from repro.core.protocol import ClientDevice  # noqa: F401
        from repro.net.client import NetworkClient
        from repro.net.server import CAServer
        from repro.net.transport import InProcessTransport

        authority, clients = fleet
        engine = _BudgetRecorder.install(authority)
        client_id, device, mask = clients[0]
        network_client = NetworkClient(
            device,
            InProcessTransport(),
            reference_mask=mask,
            deadline_seconds=18.0,
        )
        result = network_client.authenticate(CAServer(authority))
        assert result.authenticated
        assert engine.budgets == [min(authority.search_service.time_threshold, 18.0)]


class _BudgetRecorder(EngineWrapper):
    """The authority's engine, recording the time budget of each search."""

    @classmethod
    def install(cls, authority):
        engine = cls(authority.search_service.engine)
        authority.search_service.engine = engine
        return engine

    def __init__(self, inner):
        super().__init__(inner)
        self.budgets = []

    def search(self, base_seed, target_digest, max_distance, time_budget=None):
        self.budgets.append(time_budget)
        return self.inner.search(
            base_seed, target_digest, max_distance, time_budget=time_budget
        )
