"""Sharded enrollment directory: ring, cache, shards, quorum, degraded mode."""

import threading
import time

import numpy as np
import pytest

from repro.directory import (
    ClientNotEnrolled,
    ConsistentHashRing,
    DirectoryUnavailable,
    HotCache,
    ShardDown,
    ShardedEnrollmentDirectory,
    ShardStore,
)
from repro.engines import build_engine
from repro.puf.ternary import TernaryMask
from repro.reliability.breaker import CircuitOpenError
from repro.reliability.faults import FaultPlan, FaultSpec

KEY = b"directory-key-!!"


def synthetic_mask(seed: int, cells: int = 512) -> TernaryMask:
    rng = np.random.default_rng(seed)
    return TernaryMask(
        address=0,
        usable=rng.random(cells) > 0.03,
        reference=(rng.random(cells) > 0.5),
        instability=np.zeros(cells),
    )


class TestConsistentHashRing:
    def test_replicas_are_distinct_and_stable(self):
        ring = ConsistentHashRing([f"s{i}" for i in range(8)])
        for key in ("alice", "bob", "carol"):
            replicas = ring.replicas_for(key, 3)
            assert len(replicas) == len(set(replicas)) == 3
            assert replicas == ring.replicas_for(key, 3)

    def test_ring_points_are_pinned_to_from_spec_sha3(self):
        """Placement is persistent state: a ring point is the from-spec digest."""
        from repro.directory.hashring import _point
        from repro.hashes.sha3 import sha3_256

        label = "tenant-a/client-0007"
        assert _point(label) == 14607041676604648428
        assert _point(label) == int.from_bytes(sha3_256(label.encode())[:8], "big")
        ring = ConsistentHashRing([f"shard-{i}" for i in range(4)])
        assert ring.replicas_for(label, 2) == ("shard-3", "shard-1")

    def test_primary_is_first_replica(self):
        ring = ConsistentHashRing(["a", "b", "c"])
        assert ring.primary_for("key") == ring.replicas_for("key", 2)[0]

    def test_membership_change_moves_few_keys(self):
        keys = [f"client-{i}" for i in range(400)]
        before = ConsistentHashRing([f"s{i}" for i in range(8)])
        after = ConsistentHashRing([f"s{i}" for i in range(9)])
        moved = sum(
            1 for k in keys if before.primary_for(k) != after.primary_for(k)
        )
        # Consistent hashing: roughly 1/9 of keys move, never a reshuffle.
        assert moved < len(keys) // 3

    def test_keys_spread_over_shards(self):
        ring = ConsistentHashRing([f"s{i}" for i in range(8)])
        owners = {ring.primary_for(f"client-{i}") for i in range(200)}
        assert len(owners) == 8

    def test_validation(self):
        with pytest.raises(ValueError):
            ConsistentHashRing([])
        with pytest.raises(ValueError):
            ConsistentHashRing(["a", "a"])
        with pytest.raises(ValueError):
            ConsistentHashRing(["a"], vnodes=0)
        with pytest.raises(ValueError):
            ConsistentHashRing(["a", "b"]).replicas_for("k", 3)


class TestHotCache:
    def test_hit_miss_and_recency(self):
        cache = HotCache(2)
        assert cache.get("a", 0) is None
        cache.put("a", "va", 0)
        cache.put("b", "vb", 0)
        assert cache.get("a", 0) == "va"  # refreshes recency
        cache.put("c", "vc", 0)           # evicts b, the LRU
        assert cache.get("b", 0) is None
        assert cache.get("a", 0) == "va"
        snap = cache.snapshot()
        assert snap["evictions"] == 1
        assert snap["hits"] == 2 and snap["misses"] == 2

    def test_an_entry_at_another_version_is_a_stale_miss(self):
        cache = HotCache(2)
        cache.put("a", "va", 0)
        assert cache.get("a", 1) is None
        assert cache.get("a", 0) is None  # dropped, not kept for later
        snap = cache.snapshot()
        assert (snap["hits"], snap["misses"]) == (0, 2)
        assert snap["stale_invalidations"] == 1 and snap["entries"] == 0

    def test_invalidate_counts_stale(self):
        cache = HotCache(2)
        cache.put("a", "va", 3)
        assert cache.invalidate("a")
        assert not cache.invalidate("a")
        assert cache.snapshot()["stale_invalidations"] == 1

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            HotCache(0)


class TestShardStore:
    def test_read_write_roundtrip_stays_encrypted(self):
        shard = ShardStore("s0", KEY)
        codec = ShardStore("codec", KEY).store
        mask = synthetic_mask(1)
        blob = codec.encrypt_record("alice", mask, 0)
        shard.install("alice", blob, 0)
        held = shard.read("alice")
        assert held == (blob, 0)
        assert shard.version_of("alice") == 0
        assert shard.read("nobody") is None  # clean miss, not a failure

    def test_kill_then_breaker_opens_then_revive_recloses(self):
        shard = ShardStore("s0", KEY)
        shard.kill()
        # ShardDown failures accumulate until the breaker trips open.
        for _ in range(shard.breaker.failure_threshold):
            with pytest.raises(ShardDown):
                shard.read("alice")
        with pytest.raises(CircuitOpenError):
            shard.read("alice")
        shard.revive()
        time.sleep(shard.breaker.recovery_seconds + 0.02)
        # The half-open probe succeeds and re-admits the shard.
        assert shard.read("alice") is None
        assert shard.breaker.state == "closed"

    def test_missing_record_does_not_trip_breaker(self):
        shard = ShardStore("s0", KEY)
        for _ in range(shard.breaker.failure_threshold + 2):
            assert shard.read("ghost") is None
        assert shard.breaker.state == "closed"


class TestShardedEnrollmentDirectory:
    def _directory(self, **kwargs) -> ShardedEnrollmentDirectory:
        kwargs.setdefault("shards", 6)
        kwargs.setdefault("replication", 2)
        kwargs.setdefault("cache_capacity", 8)
        return ShardedEnrollmentDirectory(master_key=KEY, **kwargs)

    def test_enroll_lookup_roundtrip(self):
        directory = self._directory()
        mask = synthetic_mask(3)
        directory.enroll("alice", mask)
        restored = directory.lookup("alice")
        assert (restored.reference == mask.reference).all()
        assert (restored.usable == mask.usable).all()
        assert "alice" in directory and len(directory) == 1
        assert directory.version_of("alice") == 0

    def test_unknown_client_raises_typed_keyerror(self):
        directory = self._directory()
        with pytest.raises(ClientNotEnrolled):
            directory.lookup("mallory")
        with pytest.raises(KeyError):  # ClientNotEnrolled is a KeyError
            directory.lookup("mallory")

    def test_replicas_hold_identical_ciphertext(self):
        directory = self._directory(replication=3)
        directory.enroll("alice", synthetic_mask(4))
        replicas = directory.replicas_for("alice")
        held = [directory.shard(name).read("alice") for name in replicas]
        assert len(held) == 3
        assert all(record == held[0] for record in held)

    def test_second_lookup_is_a_hot_hit(self):
        """A hot hit is cheaper than the cold read because it is no read:
        no quorum walk over the replicas, no decrypt."""
        directory = self._directory()
        directory.enroll("alice", synthetic_mask(5))
        directory.lookup("alice")
        assert (directory.hot_hits, directory.hot_misses) == (0, 1)
        assert directory.failovers == 0  # the primary answered
        quorum_reads = directory.quorum_reads
        directory.lookup("alice")
        assert (directory.hot_hits, directory.hot_misses) == (1, 1)
        assert quorum_reads == 1 and directory.quorum_reads == quorum_reads

    def test_steady_state_hit_rate_under_churn_is_at_least_ninety_percent(self):
        """128 clients on 8 shards with 64 hot entries each: after one warm
        sweep, four more sweeps with 3 re-enrollments before each must be
        served from the hot caches at least 90 % of the time."""
        directory = self._directory(shards=8, cache_capacity=64)
        masks = {f"client-{i:05d}": synthetic_mask(i) for i in range(128)}
        for client_id, mask in masks.items():
            directory.enroll(client_id, mask)
        for client_id in masks:  # the warm sweep
            directory.lookup(client_id)
        hits, misses = directory.hot_hits, directory.hot_misses
        rng = np.random.default_rng(0)
        for _round in range(4):
            for client_id in rng.choice(sorted(masks), size=3, replace=False):
                directory.enroll(str(client_id), masks[str(client_id)])
            for client_id in masks:
                directory.lookup(client_id)
        hits, misses = directory.hot_hits - hits, directory.hot_misses - misses
        assert hits + misses == 4 * 128
        assert hits / (hits + misses) >= 0.9

    def test_re_enroll_invalidates_cache_and_bumps_version(self):
        directory = self._directory()
        mask = synthetic_mask(6)
        directory.enroll("alice", mask)
        directory.lookup("alice")  # warm the cache at version 0
        directory.enroll("alice", mask)
        assert directory.version_of("alice") == 1
        hits = directory.hot_hits
        directory.lookup("alice")
        assert directory.hot_hits == hits  # the stale entry was not served

    def test_a_stale_hot_entry_is_counted_once_as_a_miss(self):
        """A look-up that read version 0 and lost the race with a write
        leaves a stale entry behind; reading it is a miss in the cache's
        counts and in the directory's, never a hit in one of them."""
        directory = self._directory()
        mask = synthetic_mask(6)
        directory.enroll("alice", mask)
        stale = directory.lookup("alice")
        directory.enroll("alice", mask)
        primary = directory.replicas_for("alice")[0]
        directory._caches[primary].put("alice", stale, 0)
        directory.lookup("alice")
        snap = directory.snapshot()
        assert snap["cache"]["hits"] == snap["hot_hits"] == 0
        assert snap["cache"]["misses"] == snap["hot_misses"] == 2
        assert snap["quorum_reads"] == 2

    def test_failover_with_exactly_r_minus_1_live_replicas(self):
        directory = self._directory()
        directory.enroll("alice", synthetic_mask(7))
        primary, backup = directory.replicas_for("alice")
        directory.kill_shard(primary)
        directory.drop_hot_caches()
        reads = directory.shard(backup).reads
        directory.lookup("alice")
        assert directory.shard(backup).reads == reads + 1
        assert directory.failovers == 1

    def test_whole_replica_set_down_is_typed_unavailable(self):
        directory = self._directory()
        directory.enroll("alice", synthetic_mask(8))
        for name in directory.replicas_for("alice"):
            directory.kill_shard(name)
        directory.drop_hot_caches()
        with pytest.raises(DirectoryUnavailable):
            directory.lookup("alice")
        assert directory.unavailable_lookups == 1

    def test_cached_entry_still_serves_while_replicas_down(self):
        directory = self._directory()
        directory.enroll("alice", synthetic_mask(9))
        directory.lookup("alice")  # cache it
        for name in directory.replicas_for("alice"):
            directory.kill_shard(name)
        hits = directory.hot_hits
        directory.lookup("alice")
        assert directory.hot_hits == hits + 1  # the cache outlives the shard loss

    def test_read_repair_after_shard_rejoin(self):
        directory = self._directory()
        mask = synthetic_mask(10)
        directory.enroll("alice", mask)
        primary, backup = directory.replicas_for("alice")
        directory.kill_shard(backup)
        directory.enroll("alice", mask)  # version 1 misses the dead backup
        directory.revive_shard(backup)
        directory.drop_hot_caches()
        directory.lookup("alice")
        assert directory.read_repairs == 1
        assert directory.shard(backup).version_of("alice") == 1
        # Healed: the next read repairs nothing.
        directory.drop_hot_caches()
        directory.lookup("alice")
        assert directory.read_repairs == 1

    def test_stale_replica_is_never_served(self):
        directory = self._directory()
        mask = synthetic_mask(11)
        directory.enroll("alice", mask)
        primary, backup = directory.replicas_for("alice")
        directory.kill_shard(backup)
        directory.enroll("alice", mask)  # backup now stale at version 0
        directory.revive_shard(backup)
        directory.kill_shard(primary)  # only the stale copy is live
        directory.drop_hot_caches()
        # Wait out the backup's breaker so its stale copy is reachable.
        time.sleep(directory.shard(backup).breaker.recovery_seconds + 0.02)
        with pytest.raises(DirectoryUnavailable):
            directory.lookup("alice")

    def test_transient_read_timeouts_are_retried(self):
        # Enroll cleanly, then attach an always-timeout injector: every
        # replica exhausts its retry budget, the lookup degrades typed,
        # and the retry counter proves backoff was attempted.
        directory = self._directory(backoff_seconds=0.0001)
        directory.enroll("alice", synthetic_mask(12))
        directory.drop_hot_caches()
        plan = FaultPlan(FaultSpec(shard_timeout_rate=1.0), seed=3)
        for index, name in enumerate(directory.shard_names):
            directory.shard(name).injector = plan.shard_injector(index)
        with pytest.raises(DirectoryUnavailable):
            directory.lookup("alice")
        assert directory.retries > 0

    def test_transient_write_timeouts_get_the_same_retry_budget(self):
        # Every install times out too: enrollment degrades typed after
        # retrying each replica instead of silently half-writing.
        directory = self._directory(
            fault_plan=FaultPlan(FaultSpec(shard_timeout_rate=1.0), seed=3),
            backoff_seconds=0.0001,
        )
        with pytest.raises(DirectoryUnavailable):
            directory.enroll("alice", synthetic_mask(12))
        assert directory.retries > 0

    def test_enroll_requires_one_live_replica(self):
        directory = self._directory()
        directory.enroll("alice", synthetic_mask(13))
        for name in directory.replicas_for("alice"):
            directory.kill_shard(name)
        with pytest.raises(DirectoryUnavailable):
            directory.enroll("alice", synthetic_mask(13))

    @staticmethod
    def _meet_inside_encrypt(directory, enrollments):
        """Run ``enrollments`` (key, mask) on threads that meet at a barrier
        inside the record encryption, after the directory has picked each
        one's version; what each enroll raised, in order."""
        barrier = threading.Barrier(len(enrollments), timeout=10.0)
        encrypt = directory._codec.encrypt_record
        minted = []

        def held(client_id, mask, version):
            minted.append(version)
            try:
                barrier.wait()
            except threading.BrokenBarrierError:
                pass  # another enrollment was refused before it got here
            return encrypt(client_id, mask, version)

        directory._codec.encrypt_record = held
        raised = [None] * len(enrollments)

        def enroll(index, client_id, mask):
            try:
                directory.enroll(client_id, mask)
            except Exception as exc:  # noqa: BLE001 - reported to the test
                raised[index] = exc
                barrier.abort()  # nobody else is coming

        threads = [
            threading.Thread(target=enroll, args=(i, *enrollment))
            for i, enrollment in enumerate(enrollments)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30.0)
        return minted, raised

    def test_concurrent_enrollments_of_one_key_mint_distinct_versions(self):
        directory = self._directory()
        mask = synthetic_mask(16)
        minted, raised = self._meet_inside_encrypt(
            directory, [("alice", mask), ("alice", mask)]
        )
        assert raised == [None, None]
        assert sorted(minted) == [0, 1]  # never one keystream twice
        assert directory.version_of("alice") == 1
        for name in directory.replicas_for("alice"):  # whatever landed last
            assert directory.shard(name).version_of("alice") == 1
        assert (directory.lookup("alice").reference == mask.reference).all()

    def test_concurrent_new_keys_cannot_overshoot_the_tenant_cap(self):
        from repro.tenancy.context import TenantContext, TenantQuota
        from repro.tenancy.errors import TenantQuotaExceeded
        from repro.tenancy.registry import TenantRegistry

        registry = TenantRegistry(
            tenants=(TenantContext("gold", quota=TenantQuota(max_enrollments=1)),)
        )
        directory = self._directory(tenants=registry)
        _minted, raised = self._meet_inside_encrypt(
            directory,
            [("gold::a", synthetic_mask(17)), ("gold::b", synthetic_mask(18))],
        )
        assert sum(isinstance(exc, TenantQuotaExceeded) for exc in raised) == 1
        assert directory.tenant_record_count("gold") == len(directory) == 1

    def test_a_refused_enrollment_gives_its_slot_back_and_burns_its_version(self):
        from repro.tenancy.context import TenantContext, TenantQuota
        from repro.tenancy.registry import TenantRegistry

        registry = TenantRegistry(
            tenants=(TenantContext("gold", quota=TenantQuota(max_enrollments=2)),)
        )
        directory = self._directory(tenants=registry)
        directory.enroll("gold::a", synthetic_mask(19))
        for name in directory.shard_names:
            directory.kill_shard(name)
        for client_id in ("gold::a", "gold::b"):
            with pytest.raises(DirectoryUnavailable):
                directory.enroll(client_id, synthetic_mask(20))
        assert directory.tenant_record_count("gold") == 1
        assert "gold::b" not in directory and len(directory) == 1
        for name in directory.shard_names:
            directory.revive_shard(name)
        time.sleep(directory.shard("shard-00").breaker.recovery_seconds + 0.02)
        for client_id in ("gold::a", "gold::b"):
            directory.enroll(client_id, synthetic_mask(20))
        # The refused versions stay burnt: a skipped version is safe.
        assert directory.version_of("gold::a") == 2
        assert directory.version_of("gold::b") == 1
        assert directory.tenant_record_count("gold") == 2

    def test_snapshot_shape(self):
        directory = self._directory()
        directory.enroll("alice", synthetic_mask(15))
        directory.lookup("alice")
        snap = directory.snapshot()
        assert snap["clients"] == 1
        assert snap["quorum_reads"] == 1
        assert set(snap["shards_detail"]) == set(directory.shard_names)
        assert snap["cache"]["misses"] >= 1

    def test_validation(self):
        with pytest.raises(ValueError):
            ShardedEnrollmentDirectory(master_key=KEY, shards=0)
        with pytest.raises(ValueError):
            ShardedEnrollmentDirectory(master_key=KEY, shards=2, replication=3)
        with pytest.raises(ValueError):
            ShardedEnrollmentDirectory(
                master_key=KEY, shards=4, replication=2, read_quorum=3
            )


class TestDegradedServing:
    """The CA server sheds typed when a key's replica set is dark."""

    @pytest.fixture(scope="class")
    def rig(self):
        from repro.core.protocol import ClientDevice
        from repro.net.concurrent import ConcurrentCAServer
        from repro.puf.model import SRAMPuf
        from repro.puf.ternary import enroll_with_masking
        from repro import quick_setup

        authority, _client, _mask = quick_setup(max_distance=1)
        directory = ShardedEnrollmentDirectory(
            master_key=KEY, shards=4, replication=2, cache_capacity=16
        )
        authority.image_db = directory
        fleet = {}
        for index in range(4):
            client_id = f"client-{index}"
            puf = SRAMPuf(num_cells=1024, stable_error=0.0, seed=400 + index)
            mask = enroll_with_masking(
                puf, 0, 1024, reads=8, instability_threshold=0.02
            )
            authority.enroll(client_id, mask)
            device = ClientDevice(
                client_id, puf, noise_target_distance=0,
                rng=np.random.default_rng(index),
            )
            fleet[client_id] = (
                device, authority.issue_challenge(client_id), mask
            )
        return authority, directory, fleet

    def test_shed_is_typed_and_served_keys_keep_working(self, rig):
        from repro.net.concurrent import ConcurrentCAServer
        from repro.refusals import Refusal, RequestShed

        authority, directory, fleet = rig
        victim = next(iter(fleet))
        engine = build_engine("sched", hash_name=authority.hash_name)
        with ConcurrentCAServer(authority, scheduler=engine) as server:
            for name in directory.replicas_for(victim):
                directory.kill_shard(name)
            directory.drop_hot_caches()
            futures = {}
            for client_id, (device, challenge, mask) in fleet.items():
                digest = device.respond(challenge, reference_mask=mask)
                if client_id != victim:
                    futures[client_id] = server.submit(client_id, digest)
                    continue
                # The door reads the image: refused there, as the typed
                # shed DirectoryUnavailable is.
                with pytest.raises(RequestShed) as excinfo:
                    server.submit(client_id, digest)
                assert excinfo.value.refusal is Refusal.DIRECTORY_UNAVAILABLE
            for client_id, future in futures.items():
                alive_replicas = [
                    name
                    for name in directory.replicas_for(client_id)
                    if directory.shard(name).alive
                ]
                if alive_replicas:
                    assert future.result(timeout=60.0).authenticated
            metrics = server.metrics.snapshot()
        assert metrics["shed_directory"] >= 1
        assert metrics["shed"] >= 1

    def test_run_search_reads_the_image_through_the_directory(self, rig):
        authority, directory, fleet = rig
        for name in directory.shard_names:
            directory.revive_shard(name)
        client_id, (device, challenge, mask) = next(iter(fleet.items()))
        # Let the breakers' recovery window pass for revived shards.
        time.sleep(0.08)
        digest = device.respond(challenge, reference_mask=mask)
        looked_up = directory.hot_hits + directory.hot_misses
        assert authority.run_search(client_id, digest).found
        assert directory.hot_hits + directory.hot_misses == looked_up + 1

    def test_the_door_reads_the_directorys_counters(self, rig):
        """The four ``directory_*`` counters are the directory's own, as
        they moved since the server was built, through a verifying
        authority too; every look-up counts, the handshake's included."""
        from repro.net.concurrent import ConcurrentCAServer
        from repro.net.messages import HandshakeRequest
        from repro.reliability.tripwire import VerifyingAuthority

        authority, directory, fleet = rig
        for name in directory.shard_names:
            directory.revive_shard(name)
        time.sleep(0.08)
        directory.lookup(next(iter(fleet)))  # before the server: not counted
        client_id, (device, challenge, mask) = next(iter(fleet.items()))
        digest = device.respond(challenge, reference_mask=mask)
        engine = build_engine("sched", hash_name=authority.hash_name)
        tripwire = VerifyingAuthority(authority)
        with ConcurrentCAServer(tripwire, scheduler=engine) as server:
            before = directory.snapshot()
            server.handle_handshake(HandshakeRequest(client_id=client_id))
            directory.kill_shard(directory.replicas_for(client_id)[0])
            directory.drop_hot_caches()
            assert server.submit(client_id, digest).result(60).authenticated
            directory.revive_shard(directory.replicas_for(client_id)[0])
            after = directory.snapshot()
            metrics = server.metrics.snapshot()
        assert {
            name: metrics[f"directory_{name}"]
            for name in ("hot_hits", "hot_misses", "failovers", "read_repairs")
        } == {
            "hot_hits": after["hot_hits"] - before["hot_hits"],
            "hot_misses": after["hot_misses"] - before["hot_misses"],
            "failovers": after["failovers"] - before["failovers"],
            "read_repairs": after["read_repairs"] - before["read_repairs"],
        }
        assert metrics["directory_hot_hits"] == 1  # the handshake's read
        assert metrics["directory_hot_misses"] == 1
        assert metrics["directory_failovers"] == 1


class TestShardLossStorm:
    def test_reduced_storm_passes_and_reproduces(self):
        from repro.directory.storm import run_shard_loss_storm

        first = run_shard_loss_storm(seed=0, clients=12)
        assert not first.failures, first.render()
        assert first.false_authentications == 0
        assert first.shed_typed == len(first.doomed)
        assert first.shed_untyped == 0
        second = run_shard_loss_storm(seed=0, clients=12)
        assert second.waves == first.waves
        assert second.doomed == first.doomed
        assert (second.victim, second.partner) == (
            first.victim, first.partner
        )
