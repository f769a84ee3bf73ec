"""Concurrent CA server: one serving path, admission control, metrics."""

import dataclasses
import threading
import time

import numpy as np
import pytest

from repro.core import (
    CertificateAuthority,
    RBCSearchService,
    RegistrationAuthority,
)
from repro.core.protocol import ClientDevice
from repro.core.salting import HashChainSalt
from repro.engines import build_engine
from repro.keygen.interface import get_keygen
from repro.net.concurrent import ConcurrentCAServer, ServerMetrics
from repro.net.errors import ServerBusy, ServerClosed, TransportError
from repro.net.messages import AuthenticationResult, DigestSubmission
from repro.net.sockets import RemoteCAServer, SocketCAServer, SocketTransport
from repro.puf.image_db import EncryptedImageDatabase
from repro.puf.model import SRAMPuf
from repro.puf.ternary import enroll_with_masking
from repro.runtime.executor import BatchSearchExecutor
from repro.refusals import Refusal, RequestShed


@pytest.fixture
def fleet_authority():
    """An enrolled CA on its own one-host dispatcher — what a server
    given no ``scheduler`` serves on (and closes)."""
    # A dark fleet sheds after 0.2 s instead of 2 s: the failed-device
    # tests below wait that long.
    engine = build_engine("sched:sha1,bs=8192,no_device_grace=0.2")
    authority = CertificateAuthority(
        search_service=RBCSearchService(engine, max_distance=1),
        salt=HashChainSalt(),
        keygen=get_keygen("aes-128"),
        registration_authority=RegistrationAuthority(),
        image_db=EncryptedImageDatabase(b"concurrent-mastr"),
        hash_name="sha1",
    )
    clients = []
    for i in range(6):
        puf = SRAMPuf(num_cells=2048, stable_error=0.001, seed=9000 + i)
        mask = enroll_with_masking(puf, 0, 2048, reads=48,
                                   instability_threshold=0.02)
        client_id = f"c{i}"
        authority.enroll(client_id, mask)
        device = ClientDevice(client_id, puf, noise_target_distance=1,
                              rng=np.random.default_rng(i))
        clients.append((client_id, device, mask))
    yield authority, clients
    engine.close()  # again, for the tests that serve on another engine


def _hold_device(authority) -> threading.Event:
    """Hold each of the authority's devices at its next batch until the
    returned gate is set — searches stay in flight meanwhile."""
    gate = threading.Event()
    for device in authority.search_service.engine.scheduler.devices:

        def held(slices, run_batch=device.run_batch):
            gate.wait(timeout=30)
            return run_batch(slices)

        device.run_batch = held
    return gate


def _two_deep(authority, clients):
    """Serve d <= 2 and have each client answer at distance 2, so its
    search passes the door (shells 0 and 1) and reaches a device."""
    engine = authority.search_service.engine
    authority.search_service = RBCSearchService(engine, max_distance=2)
    for _client_id, device, _mask in clients:
        device.noise_target_distance = 2


def _digest_for(authority, client_id, device, mask):
    challenge = authority.issue_challenge(client_id)
    return device.respond(challenge, reference_mask=mask)


class TestConcurrentServer:
    def test_parallel_fleet_authenticates(self, fleet_authority):
        authority, clients = fleet_authority
        with ConcurrentCAServer(authority) as server:
            futures = []
            for client_id, device, mask in clients:
                digest = _digest_for(authority, client_id, device, mask)
                futures.append(server.submit(client_id, digest))
            results = [f.result(timeout=60) for f in futures]
        assert all(r.authenticated for r in results)
        snapshot = server.metrics.snapshot()
        assert snapshot["completed"] == 6
        assert snapshot["authenticated"] == 6

    def test_duplicate_in_flight_rejected(self, fleet_authority):
        authority, clients = fleet_authority
        _two_deep(authority, clients[:2])
        client_id, device, mask = clients[0]
        digest = _digest_for(authority, client_id, device, mask)
        other_digest = _digest_for(
            authority, clients[1][0], clients[1][1], clients[1][2]
        )
        gate = _hold_device(authority)
        with ConcurrentCAServer(authority) as server:
            first = server.submit(clients[1][0], other_digest)
            second = server.submit(client_id, digest)  # in flight beside it
            with pytest.raises(ServerBusy, match="in flight"):
                server.submit(client_id, digest)
            gate.set()
            assert first.result(timeout=60) is not None
            assert second.result(timeout=60).authenticated
        assert server.metrics.snapshot()["rejected_duplicate"] == 1

    def test_saturation_rejects(self, fleet_authority):
        authority, clients = fleet_authority
        _two_deep(authority, clients[:4])
        gate = _hold_device(authority)
        with ConcurrentCAServer(authority, max_queue=2) as server:
            submitted = []
            rejected = 0
            for client_id, device, mask in clients[:4]:
                digest = _digest_for(authority, client_id, device, mask)
                try:
                    submitted.append(server.submit(client_id, digest))
                except ServerBusy:
                    rejected += 1
            gate.set()  # unblock the device
            for future in submitted:
                future.result(timeout=60)
        assert rejected >= 1
        assert server.metrics.snapshot()["rejected_busy"] >= 1

    def test_closed_server_rejects(self, fleet_authority):
        authority, clients = fleet_authority
        server = ConcurrentCAServer(authority)
        server.close()
        server.close()  # idempotent
        client_id, device, mask = clients[0]
        with pytest.raises(ServerClosed, match="closed"):
            server.submit(client_id, b"\x00" * 20)

    def test_failed_auth_counted_but_not_authenticated(self, fleet_authority):
        authority, clients = fleet_authority
        from repro.hashes.sha1 import sha1

        with ConcurrentCAServer(authority) as server:
            future = server.submit("c0", sha1(b"not the right seed" + b"\x00" * 14))
            result = future.result(timeout=60)
        assert not result.authenticated
        snapshot = server.metrics.snapshot()
        assert snapshot["completed"] == 1 and snapshot["authenticated"] == 0

    def test_validation(self, fleet_authority):
        authority, _clients = fleet_authority
        with pytest.raises(ValueError):
            ConcurrentCAServer(authority, max_queue=0)
        # One backend: an engine without ``submit()`` is refused at
        # construction, passed in or found on the authority.
        blocking = BatchSearchExecutor("sha1", batch_size=8192)
        with pytest.raises(TypeError, match="dispatcher"):
            ConcurrentCAServer(authority, scheduler=blocking)
        authority.search_service = RBCSearchService(blocking, max_distance=1)
        with pytest.raises(TypeError, match="dispatcher"):
            ConcurrentCAServer(authority)

    def test_backend_exception_recorded_as_failed(self, fleet_authority):
        authority, clients = fleet_authority
        _two_deep(authority, [])  # a miss at the door needs shell 2
        fleet = authority.search_service.engine.scheduler
        for device in fleet.devices:
            fleet.kill_device(device.name)  # every batch fails
        with ConcurrentCAServer(authority) as server:
            future = server.submit("c0", b"\x00" * 20)
            with pytest.raises(RequestShed) as shed:
                future.result(timeout=60)
        assert shed.value.refusal is Refusal.NO_HEALTHY_DEVICES
        snapshot = server.metrics.snapshot()
        # The failed search is accounted, not silently dropped:
        # submitted == completed + failed.
        assert snapshot["failed"] == 1
        assert snapshot["completed"] == 0
        assert snapshot["submitted"] == 1


class TestUnenrolledClient:
    """Where a request is accounted: a digest for a client the store does
    not hold is an admitted request that failed — counted, through the
    future — not an exception out of ``submit()`` with no counter moved."""

    @pytest.fixture(params=["plain store"])
    def authority(self, fleet_authority):
        return fleet_authority[0]

    def test_counted_and_failed_through_the_future(self, authority):
        from repro.tenancy.context import DEFAULT_TENANT

        with ConcurrentCAServer(authority) as server:
            future = server.submit("ghost", b"\x00" * 20)
            with pytest.raises(KeyError, match="ghost"):
                future.result(timeout=60)
            snapshot = server.metrics.snapshot()
            assert server._pending == 0 and not server._in_flight_clients
        assert snapshot["submitted"] == 1
        assert snapshot["submitted"] == snapshot["completed"] + snapshot["failed"]
        ledger = server.metrics.tenant_snapshot()[DEFAULT_TENANT]
        assert (ledger["submitted"], ledger["failed"]) == (1, 1)

    def test_over_tcp_it_is_a_typed_error_reply(self, authority):
        from repro.deploy.loadgen import classify_failure

        with SocketCAServer(ConcurrentCAServer(authority)) as server:
            with SocketTransport(server.host, server.port) as transport:
                remote = RemoteCAServer(transport)
                with pytest.raises(TransportError) as refused:
                    remote.handle_digest(
                        DigestSubmission(client_id="ghost", digest=b"\x00" * 20)
                    )
                counters = remote.fetch_metrics().counters
        assert "ghost" in str(refused.value)
        assert classify_failure(refused.value) == "transport"
        assert counters["submitted"] == counters["failed"] == 1
        assert server.error_replies == 1


class TestSubmittedComesFirst:
    """A request can settle inside ``submit()`` — a client the store does
    not hold, a depth-0 hit that the dispatcher answers at admission —
    and the door counts it ``submitted`` before its settlement, so no
    counter or ledger ever reads more settled than submitted."""

    @pytest.mark.parametrize("who", ["unknown client", "d0 hit"])
    def test_never_more_settled_than_submitted(self, fleet_authority, who):
        from repro.engines import engine_target
        from repro.tenancy.context import DEFAULT_TENANT

        authority, clients = fleet_authority
        if who == "unknown client":
            client_id, digest = "ghost", b"\x00" * 20
        else:
            client_id = clients[0][0]
            digest = engine_target(
                authority.search_service.engine,
                authority.enrolled_seed(client_id),
            )
        with ConcurrentCAServer(authority) as server:
            metrics, record = server.metrics, server.metrics.record
            readings = []

            def checked(**increments):
                record(**increments)
                counters = metrics.snapshot()
                ledger = metrics.tenant_snapshot()[DEFAULT_TENANT]
                readings.append(
                    (
                        counters["submitted"],
                        counters["completed"] + counters["failed"],
                        ledger["submitted"],
                        ledger["completed"] + ledger["failed"],
                    )
                )

            metrics.record = checked
            future = server.submit(client_id, digest)
            assert future.done()  # settled before submit() returned
            if who == "d0 hit":
                reply = future.result()
                assert reply.authenticated and reply.distance == 0
        assert len(readings) == 2
        assert all(
            submitted >= settled and tenant_submitted >= tenant_settled
            for submitted, settled, tenant_submitted, tenant_settled in readings
        ), readings
        assert readings[-1] == (1, 1, 1, 1)


class TestMessageSurface:
    """``handle_handshake`` / ``handle_digest``: the server is shaped like
    the serial ``CAServer``, so a client (or the socket front end) drives
    it directly."""

    def test_a_network_client_authenticates_against_the_server_itself(
        self, fleet_authority
    ):
        from repro.net.client import NetworkClient
        from repro.net.messages import HandshakeRequest
        from repro.net.server import CAServer
        from repro.net.transport import InProcessTransport
        from repro.reliability.tripwire import VerifyingAuthority

        authority, clients = fleet_authority
        client_id, device, mask = clients[0]
        tripwire = VerifyingAuthority(authority)
        with ConcurrentCAServer(tripwire) as server:
            request = HandshakeRequest(client_id=client_id)
            assert (
                server.handle_handshake(request).to_bytes()
                == CAServer(authority).handle_handshake(request).to_bytes()
            )
            result = NetworkClient(
                device, InProcessTransport(), reference_mask=mask
            ).authenticate(server)
        assert result.authenticated and result.client_id == client_id
        # handle_digest pinned the M1 with the tripwire; issuance consumed it.
        assert tripwire._digests[client_id] == []
        assert tripwire.false_authentications == 0
        assert server.metrics.snapshot()["completed"] == 1


#: What the parent's bounded-pool backend (deleted in PR 18) replied to
#: ``c0``'s first digest, and the counters it left — captured at bbcc74f
#: with ``search_seconds`` zeroed and without the wall-clock and
#: plan-cache counters only one backend had, and ``rejected_open``.
PARENT_POOL_REPLY = AuthenticationResult(
    client_id="c0",
    authenticated=True,
    distance=1,
    public_key=bytes.fromhex("ff9a7d710d2c316f5379b22c813a41e3"),
    search_seconds=0.0,
    timed_out=False,
)
PARENT_POOL_COUNTERS = {
    "submitted": 1, "completed": 1, "authenticated": 1, "failed": 0,
    "rejected_busy": 0, "rejected_duplicate": 0,
    "seeds_hashed": 257, "shells_completed": 2,
    "shed": 0, "preempted": 0, "queue_depth_peak": 1,
    "redispatched": 0, "shed_tenant_quota": 0,
    "enrollments": 0, "recovered_records": 0, "recovery_seconds": 0.0,
}


class TestOneServingPath:
    def test_pool_and_dispatcher_settle_the_same_request_identically(
        self, fleet_authority
    ):
        """The one backend settles a request to the reply and the counters
        the deleted pool backend gave it."""
        authority, clients = fleet_authority
        client_id, device, mask = clients[0]
        digest = _digest_for(authority, client_id, device, mask)
        assert digest.hex() == "557d91672ea69b8f0261212bf4ec217faa68359c"
        with ConcurrentCAServer(authority) as server:
            reply = server.submit(client_id, digest).result(timeout=60)
        counters = server.metrics.snapshot()
        assert dataclasses.replace(reply, search_seconds=0.0) == PARENT_POOL_REPLY
        #: Wall-clock.
        del counters["total_search_seconds"]
        assert counters == PARENT_POOL_COUNTERS


class TestServerMetricsRecord:
    def test_record_is_the_single_write_path(self):
        metrics = ServerMetrics()
        metrics.record(submitted=2, completed=1, authenticated=1,
                       failed=1, search_seconds=0.5)
        metrics.record(rejected_busy=1, rejected_duplicate=2,
                       seeds_hashed=257, shells_completed=2)
        metrics.record(queue_depth=5)
        metrics.record(queue_depth=3)  # gauge: peak is kept, not summed
        # What the dispatcher did is read off it, never recorded here.
        with pytest.raises(TypeError, match="redispatched"):
            metrics.record(redispatched=2)
        metrics.record_shed("deadline_expired")
        metrics.record_shed("deadline_expired")
        metrics.record_shed("tenant_quota")
        metrics.record_enrollment()
        metrics.record_enrollment()
        metrics.record_recovery(records=7, seconds=0.25)
        snapshot = metrics.snapshot()
        assert snapshot == {
            "submitted": 2,
            "completed": 1,
            "authenticated": 1,
            "failed": 1,
            "rejected_busy": 1,
            "rejected_duplicate": 2,
            "total_search_seconds": 0.5,
            "seeds_hashed": 257,
            "shells_completed": 2,
            "shed": 3,
            "preempted": 0,
            "queue_depth_peak": 5,
            "redispatched": 0,
            "shed_tenant_quota": 1,
            "enrollments": 2,
            "recovered_records": 7,
            "recovery_seconds": 0.25,
        }

    def test_shed_reasons_can_never_drift_from_the_total(self):
        """record_shed is the only shed path: per-reason counts sum to it."""
        metrics = ServerMetrics()
        # record() deliberately has no shed kwarg anymore.
        with pytest.raises(TypeError):
            metrics.record(shed=1)
        for reason in ("saturated", "deadline_expired", "saturated",
                       "tenant_quota"):
            metrics.record_shed(reason)
        snapshot = metrics.snapshot()
        breakdown = metrics.shed_breakdown()
        assert sum(breakdown.values()) == snapshot["shed"] == 4
        assert breakdown == {
            "saturated": 2,
            "deadline_expired": 1,
            "tenant_quota": 1,
        }
        # The derived convenience counter follows the typed reason exactly.
        assert snapshot["shed_tenant_quota"] == 1

    def test_record_is_thread_safe(self):
        import threading

        metrics = ServerMetrics()

        def hammer():
            for _ in range(500):
                metrics.record(submitted=1, search_seconds=0.001)

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        snapshot = metrics.snapshot()
        assert snapshot["submitted"] == 4000
        assert snapshot["total_search_seconds"] == pytest.approx(4.0)

    def test_concurrent_record_from_many_threads_loses_nothing(self):
        """Mixed record/record_shed hammering from many threads stays exact."""
        import threading

        metrics = ServerMetrics()
        workers, rounds = 12, 300

        def hammer(worker: int):
            tenant = f"tenant-{worker % 3}"
            for i in range(rounds):
                metrics.record(
                    submitted=1,
                    completed=1,
                    search_seconds=0.001,
                    tenant_id=tenant,
                )
                if i % 3 == 0:
                    metrics.record_shed(
                        "tenant_quota" if i % 2 else "saturated",
                        tenant_id=tenant,
                    )

        threads = [
            threading.Thread(target=hammer, args=(w,)) for w in range(workers)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        snapshot = metrics.snapshot()
        assert snapshot["submitted"] == workers * rounds
        assert snapshot["completed"] == workers * rounds
        sheds_each = len([i for i in range(rounds) if i % 3 == 0])
        assert snapshot["shed"] == workers * sheds_each
        assert sum(metrics.shed_breakdown().values()) == snapshot["shed"]
        per_tenant = metrics.tenant_snapshot()
        assert set(per_tenant) == {"tenant-0", "tenant-1", "tenant-2"}
        assert sum(t["submitted"] for t in per_tenant.values()) == (
            workers * rounds
        )
        assert sum(t["shed"] for t in per_tenant.values()) == snapshot["shed"]
        quota_hits = sum(t["quota_hits"] for t in per_tenant.values())
        assert quota_hits == metrics.shed_breakdown()["tenant_quota"]
        for stats in per_tenant.values():
            assert stats["p99_seconds"] == pytest.approx(0.001)


#: The metrics frame's counter names, in ``ServerMetrics.snapshot()``
#: order, as the ladder and the deploy storm read them.
PARENT_COUNTER_NAMES = (
    "submitted", "completed", "authenticated", "failed", "rejected_busy",
    "rejected_duplicate", "total_search_seconds", "seeds_hashed",
    "shells_completed", "shed", "preempted",
    "queue_depth_peak", "redispatched", "shed_tenant_quota",
    "enrollments", "recovered_records", "recovery_seconds",
)


class TestMetricsFrame:
    def test_counters_the_ladder_reads_cross_the_wire(self, fleet_authority):
        """The same depth-1 authentication twice over TCP: each adds the
        rows it hashed."""
        from repro.net.client import NetworkClient

        authority, clients = fleet_authority
        client_id, device, mask = clients[0]
        concurrent = ConcurrentCAServer(authority)
        with SocketCAServer(concurrent) as server:
            with SocketTransport(server.host, server.port) as transport:
                remote = RemoteCAServer(transport)
                scrapes = [remote.fetch_metrics().counters]
                for _ in range(2):
                    reply = NetworkClient(
                        device, transport, reference_mask=mask
                    ).authenticate(remote)
                    assert reply.authenticated and reply.distance == 1
                    scrapes.append(remote.fetch_metrics().counters)
        assert list(concurrent.metrics.snapshot()) == list(PARENT_COUNTER_NAMES)
        # The frame is canonical JSON: the same names, sorted.
        assert list(scrapes[-1]) == sorted(PARENT_COUNTER_NAMES)
        hashed = [counters["seeds_hashed"] for counters in scrapes]
        # d = 0, then the whole d = 1 shell (one batch) where it was found.
        assert [b - a for a, b in zip(hashed, hashed[1:])] == [1 + 256] * 2
        assert scrapes[-1]["completed"] == 2


class TestAdmissionControlUnderConcurrency:
    def test_saturation_storm_keeps_counters_consistent(self, fleet_authority):
        """Many threads push past max_queue; nothing leaks or double-counts."""
        authority, clients = fleet_authority
        gate = _hold_device(authority)
        max_queue = 3
        attempts_per_thread = 4
        threads = 8
        accepted, rejected_busy, rejected_dup = [], [], []
        record_lock = threading.Lock()

        with ConcurrentCAServer(authority, max_queue=max_queue) as server:
            digests = {
                client_id: _digest_for(authority, client_id, device, mask)
                for client_id, device, mask in clients
            }

            def storm(thread_index):
                for attempt in range(attempts_per_thread):
                    client_id, _device, _mask = clients[
                        (thread_index + attempt) % len(clients)
                    ]
                    try:
                        future = server.submit(client_id, digests[client_id])
                        with record_lock:
                            accepted.append(future)
                    except ServerBusy as exc:
                        with record_lock:
                            if exc.refusal is Refusal.DOOR_SATURATED:
                                rejected_busy.append(client_id)
                            else:
                                rejected_dup.append(client_id)

                # In-flight load never exceeds the admission limit.
                assert server._pending <= max_queue

            workers = [
                threading.Thread(target=storm, args=(i,))
                for i in range(threads)
            ]
            for t in workers:
                t.start()
            gate.set()
            for t in workers:
                t.join()
            results = [f.result(timeout=60) for f in accepted]

        snapshot = server.metrics.snapshot()
        total_attempts = threads * attempts_per_thread
        # Every attempt is accounted exactly once.
        assert (
            len(accepted) + len(rejected_busy) + len(rejected_dup)
            == total_attempts
        )
        assert snapshot["submitted"] == len(accepted)
        assert snapshot["rejected_busy"] == len(rejected_busy)
        assert snapshot["rejected_duplicate"] == len(rejected_dup)
        # Every accepted search finished (this backend cannot fail).
        assert snapshot["completed"] == len(accepted)
        assert snapshot["failed"] == 0
        assert all(r.authenticated for r in results)
        # The queue fully drained.
        assert server._pending == 0
        assert not server._in_flight_clients


class TestFleetBackedServer:
    """Satellite: close() drain-or-cancel while a fleet device is
    quarantined mid-drain — no hang, typed ServerClosed afterwards."""

    def test_close_drains_on_survivor_while_device_quarantined(
        self, fleet_authority
    ):
        from repro.fleet import FleetSearchEngine

        authority, clients = fleet_authority
        fleet = FleetSearchEngine(
            "host",
            "host",
            hash_name="sha1",
            batch_size=8192,
            heartbeat_seconds=0.01,
        )
        server = ConcurrentCAServer(authority, scheduler=fleet)
        futures = []
        for client_id, device, mask in clients[:4]:
            digest = _digest_for(authority, client_id, device, mask)
            futures.append(server.submit(client_id, digest))
        # Kill one device while its share of the work is in flight; the
        # drain must complete on the survivor without hanging.
        victim = fleet.scheduler.devices[-1].name
        fleet.scheduler.kill_device(victim)
        server.close(wait=True)
        results = [f.result(timeout=1.0) for f in futures]  # all settled
        assert all(r.authenticated for r in results)
        with pytest.raises(ServerClosed):
            server.submit("late", b"\x00" * 20)
        snapshot = server.metrics.snapshot()
        assert snapshot["completed"] == len(results)
        # The fleet counters are part of the server's metric surface,
        # read off the dispatcher, not summed per request.
        assert snapshot["redispatched"] == (
            fleet.scheduler.snapshot()["redispatched_chunks"]
        )

    def test_fleet_backed_server_reports_redispatch(self, fleet_authority):
        from repro.fleet import FleetSearchEngine

        authority, clients = fleet_authority
        fleet = FleetSearchEngine(
            "host", "host", hash_name="sha1", batch_size=8192
        )
        with ConcurrentCAServer(authority, scheduler=fleet) as server:
            futures = []
            for client_id, device, mask in clients[:3]:
                digest = _digest_for(authority, client_id, device, mask)
                futures.append(server.submit(client_id, digest))
            results = [f.result(timeout=120) for f in futures]
        assert all(r.authenticated for r in results)
        snapshot = server.metrics.snapshot()
        assert snapshot["authenticated"] == len(results)
        assert snapshot["queue_depth_peak"] >= 1

    def test_a_submitter_dying_in_its_range_is_counted_failed(
        self, fleet_authority, monkeypatch
    ):
        """A request that fits one range is hashed by the thread calling
        ``submit``. An unexpected exception there shuts the dispatcher
        down and reaches the server as a failed search, so
        ``submitted == completed + failed + pending`` holds."""
        from repro.fleet import FleetSearchEngine, batcher

        real, caller = batcher.first_matches, threading.current_thread()

        def exploding_scan(algo, fixed_padding, slices, workers=1):
            if threading.current_thread() is caller and slices[0].distance >= 2:
                raise RuntimeError("kernel blew up")
            return real(algo, fixed_padding, slices, workers)

        authority, clients = fleet_authority
        fleet = FleetSearchEngine("host", hash_name="sha1", batch_size=32768)
        authority.search_service = RBCSearchService(fleet, max_distance=2)
        monkeypatch.setattr(batcher, "first_matches", exploding_scan)
        with ConcurrentCAServer(authority, scheduler=fleet) as server:
            # An absent digest misses shells 0 and 1 at the door.
            future = server.submit(clients[0][0], b"\x00" * 20)
            with pytest.raises(RuntimeError, match="blew up"):
                future.result(timeout=30)
            snapshot = server.metrics.snapshot()
            assert server._pending == 0 and not server._in_flight_clients
        assert snapshot["submitted"] == snapshot["failed"] == 1
        assert snapshot["submitted"] == snapshot["completed"] + snapshot["failed"]
        shed = fleet.scheduler.snapshot()["shed_reasons"]
        assert shed == {Refusal.SHUTDOWN.reason: 1}
