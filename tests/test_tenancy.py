"""Tenancy: identity, quotas, fair share, namespacing, end to end."""

import json
import zlib
from types import SimpleNamespace

import pytest

from repro._bitutils import flip_bits
from repro.core import (
    CertificateAuthority,
    RBCSearchService,
    RegistrationAuthority,
)
from repro.core.salting import HashChainSalt
from repro.engines import build_engine
from repro.hashes.registry import get_hash
from repro.keygen.interface import get_keygen
from repro.net.concurrent import ConcurrentCAServer
from repro.net.messages import DigestSubmission, HandshakeRequest
from repro.puf.image_db import EncryptedImageDatabase
from repro.puf.model import SRAMPuf
from repro.puf.ternary import enroll_with_masking
from repro.runtime.executor import BatchSearchExecutor
from repro.fleet.policy import SchedulingPolicy
from repro.net.errors import ServerBusy
from repro.refusals import Refusal, RequestShed
from repro.tenancy import (
    DEFAULT_TENANT,
    TenantContext,
    TenantLedger,
    TenantQuota,
    TenantRegistry,
    TokenBucket,
    namespaced_key,
    validate_tenant_id,
)
from repro.tenancy.errors import UnknownTenant


class ManualClock:
    def __init__(self, now: float = 0.0):
        self.now = now

    def advance(self, seconds: float) -> None:
        self.now += seconds

    def __call__(self) -> float:
        return self.now


class TestTenantIdentity:
    def test_default_tenant_maps_to_bare_key(self):
        # Byte-for-byte the pre-tenancy key: legacy records stay found.
        assert namespaced_key(None, "alice") == "alice"
        assert namespaced_key("", "alice") == "alice"
        assert namespaced_key(DEFAULT_TENANT, "alice") == "alice"

    def test_named_tenant_prefixes_the_key(self):
        assert namespaced_key("gold", "alice") == "gold::alice"

    def test_separator_forbidden_inside_client_ids(self):
        with pytest.raises(ValueError, match="may not contain"):
            namespaced_key("gold", "a::b")

    def test_tenant_id_charset_enforced(self):
        validate_tenant_id("fleet-7.eu_west")
        for bad in ("", "Gold", "a b", "-lead", "x" * 65, "a::b"):
            with pytest.raises(ValueError):
                validate_tenant_id(bad)
        with pytest.raises(ValueError):
            TenantContext("BAD")

    def test_quota_validation_and_bucket_capacity(self):
        assert TenantQuota().bucket_capacity is None
        assert TenantQuota(lookup_rate=8.0).bucket_capacity == 8.0
        assert TenantQuota(lookup_rate=0.25).bucket_capacity == 1.0
        assert TenantQuota(lookup_rate=2.0, burst=16.0).bucket_capacity == 16.0
        with pytest.raises(ValueError):
            TenantQuota(lookup_rate=0.0)
        with pytest.raises(ValueError):
            TenantQuota(burst=0.5)
        with pytest.raises(ValueError):
            TenantContext("gold", weight=0.0)


class TestTokenBucket:
    def test_burst_then_dry(self):
        clock = ManualClock()
        bucket = TokenBucket(rate=1.0, capacity=2.0, clock=clock)
        assert bucket.try_acquire()
        assert bucket.try_acquire()
        assert not bucket.try_acquire()

    def test_refills_at_rate_and_caps_at_capacity(self):
        clock = ManualClock()
        bucket = TokenBucket(rate=2.0, capacity=4.0, clock=clock)
        for _ in range(4):
            assert bucket.try_acquire()
        clock.advance(0.5)  # one token back
        assert bucket.available == pytest.approx(1.0)
        assert bucket.try_acquire()
        assert not bucket.try_acquire()
        clock.advance(1000.0)
        assert bucket.available == pytest.approx(4.0)  # capped

    def test_refused_acquire_does_not_debit(self):
        clock = ManualClock()
        bucket = TokenBucket(rate=1.0, capacity=1.0, clock=clock)
        assert bucket.try_acquire()
        assert not bucket.try_acquire(5.0)
        clock.advance(1.0)
        assert bucket.try_acquire()

    def test_validation(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0.0, capacity=1.0)
        with pytest.raises(ValueError):
            TokenBucket(rate=1.0, capacity=0.0)
        with pytest.raises(ValueError):
            TokenBucket(rate=1.0, capacity=1.0).try_acquire(0.0)


class TestTenantRegistry:
    def test_default_tenant_always_registered(self):
        registry = TenantRegistry()
        assert DEFAULT_TENANT in registry
        assert registry.resolve(None).tenant_id == DEFAULT_TENANT
        assert registry.resolve("").tenant_id == DEFAULT_TENANT

    def test_unknown_tenant_falls_back_unless_strict(self):
        registry = TenantRegistry()
        assert registry.resolve("ghost").tenant_id == DEFAULT_TENANT
        strict = TenantRegistry(strict=True)
        with pytest.raises(UnknownTenant):
            strict.resolve("ghost")

    def test_try_admit_charges_the_bucket(self):
        clock = ManualClock()
        registry = TenantRegistry(
            tenants=(
                TenantContext(
                    "gold", quota=TenantQuota(lookup_rate=1.0, burst=2.0)
                ),
            ),
            clock=clock,
        )
        assert registry.try_admit("gold")
        assert registry.try_admit("gold")
        assert not registry.try_admit("gold")
        clock.advance(1.0)
        assert registry.try_admit("gold")
        # No quota, no limit: the default tenant always admits.
        for _ in range(100):
            assert registry.try_admit(None)

    def test_register_replace_resets_the_bucket(self):
        clock = ManualClock()
        context = TenantContext(
            "gold", quota=TenantQuota(lookup_rate=1.0, burst=1.0)
        )
        registry = TenantRegistry(tenants=(context,), clock=clock)
        assert registry.try_admit("gold")
        assert not registry.try_admit("gold")
        registry.register(context)  # fresh bucket
        assert registry.try_admit("gold")

    def test_weights_caps_and_snapshot(self):
        registry = TenantRegistry(
            tenants=(
                TenantContext(
                    "gold",
                    weight=3.0,
                    quota=TenantQuota(lookup_rate=5.0),
                ),
            )
        )
        assert registry.weight_of("gold") == 3.0
        assert registry.weight_of("ghost") == 1.0
        snapshot = registry.snapshot()
        assert set(snapshot["gold"]) == {
            "weight", "lookup_rate", "burst", "tokens_available",
        }
        assert snapshot["gold"]["lookup_rate"] == 5.0
        assert snapshot["gold"]["tokens_available"] == pytest.approx(5.0)
        assert "tokens_available" not in snapshot[DEFAULT_TENANT]
        contexts = registry.contexts()
        assert contexts[0].tenant_id == DEFAULT_TENANT


class TestTenantLedger:
    def test_attribution_and_percentiles(self):
        ledger = TenantLedger()
        for latency in (0.010, 0.020, 0.030):
            ledger.record(
                "gold", submitted=1, completed=1, authenticated=1,
                search_seconds=latency, latency_seconds=latency,
            )
        ledger.record("brass", shed=1, quota_hits=1)
        assert ledger.tenant_ids() == ("brass", "gold")
        snapshot = ledger.snapshot()
        assert snapshot["gold"]["completed"] == 3
        assert snapshot["gold"]["p50_seconds"] == pytest.approx(0.020)
        assert snapshot["brass"]["shed"] == 1
        assert snapshot["brass"]["quota_hits"] == 1
        assert "p50_seconds" not in snapshot["brass"]


def _tenant_req(seq, tenant_id, lane="shallow", deadline=None,
                remaining=1000, aged=False):
    return SimpleNamespace(
        seq=seq, lane=lane, deadline=deadline, remaining_work=remaining,
        tenant_id=tenant_id, aged=aged,
    )


class TestPolicyTenancy:
    def _policy(self, **weights):
        registry = TenantRegistry(
            tenants=tuple(
                TenantContext(tenant_id, weight=weight)
                for tenant_id, weight in weights.items()
            )
        )
        return SchedulingPolicy(tenants=registry)

    def test_admission_charges_the_bucket_last(self):
        clock = ManualClock()
        registry = TenantRegistry(
            tenants=(
                TenantContext(
                    "gold", quota=TenantQuota(lookup_rate=1.0, burst=1.0)
                ),
            ),
            clock=clock,
        )
        policy = SchedulingPolicy(tenants=registry)
        # A saturated queue sheds before the bucket is charged...
        assert policy.admission_shed_reason(
            queue_depth=8, max_queue=8, deadline_seconds=None,
            throughput=None, tenant_id="gold",
        ) is Refusal.SATURATED
        assert registry.try_admit("gold")  # ...token still there
        # Bucket is now dry: the typed quota shed.
        assert policy.admission_shed_reason(
            queue_depth=0, max_queue=8, deadline_seconds=None,
            throughput=None, tenant_id="gold",
        ) is Refusal.TENANT_QUOTA

    def test_tenantless_policy_admits_everyone(self):
        policy = SchedulingPolicy()
        assert policy.admission_shed_reason(
            queue_depth=0, max_queue=8, deadline_seconds=None,
            throughput=None, tenant_id="anyone",
        ) is None

    def test_over_share_needs_two_present_tenants(self):
        policy = self._policy(gold=1.0, brass=1.0)
        rows = [("gold", 100)] * 10
        only_gold = [_tenant_req(0, "gold")]
        assert policy.over_share_tenants(only_gold, rows) == frozenset()
        both = [_tenant_req(0, "gold"), _tenant_req(1, "brass")]
        assert policy.over_share_tenants(both, rows) == {"gold"}

    def test_weighted_share_respects_weights(self):
        policy = self._policy(gold=3.0, brass=1.0)
        runnable = [_tenant_req(0, "gold"), _tenant_req(1, "brass")]
        # Exactly at the 3:1 entitlement: nobody is over.
        rows = [("gold", 75), ("brass", 25)]
        assert policy.over_share_tenants(runnable, rows) == frozenset()
        # 80% of rows to the 75%-entitled tenant: over.
        rows = [("gold", 80), ("brass", 20)]
        assert policy.over_share_tenants(runnable, rows) == {"gold"}

    def test_pick_passes_over_the_hogging_tenant(self):
        policy = self._policy(gold=1.0, brass=1.0)
        hog = _tenant_req(0, "gold", remaining=10)
        waiting = _tenant_req(1, "brass", remaining=10**6)
        rows = [("gold", 1000)]
        # Despite cheaper work and FIFO priority, the over-share tenant
        # cannot lead the next batch while the other waits.
        assert policy.pick([hog, waiting], [], rows) is waiting
        # With no recent rows there is nothing to rebalance.
        assert policy.pick([hog, waiting], [], []) is hog

    def test_aged_request_exempt_from_fair_share(self):
        policy = self._policy(gold=1.0, brass=1.0)
        starving = _tenant_req(0, "gold", aged=True)
        starving.submitted_at = 0.0
        fresh = _tenant_req(1, "brass")
        rows = [("gold", 1000)]
        assert policy.pick([starving, fresh], [], rows) is starving

    def test_fill_order_sends_over_share_tenant_to_the_back(self):
        policy = self._policy(gold=1.0, brass=1.0)
        primary = _tenant_req(0, "brass", remaining=10**6)
        cheap_hog = _tenant_req(1, "gold", remaining=10)
        costly = _tenant_req(2, "brass", remaining=10**5)
        rows = [("gold", 1000)]
        order = policy.fill_order([primary, cheap_hog, costly], primary, rows)
        # Work conservation: the hog still rides spare capacity, last.
        assert order == [primary, costly, cheap_hog]
        order = policy.fill_order([primary, cheap_hog, costly], primary, [])
        assert order == [primary, cheap_hog, costly]


def _mask_for(seed: int):
    puf = SRAMPuf(num_cells=2048, stable_error=0.001, seed=seed)
    return enroll_with_masking(
        puf, 0, 2048, reads=8, instability_threshold=0.05
    )


class TestStoreTenancy:
    def test_namespaced_records_do_not_collide(self):
        store = EncryptedImageDatabase(b"tenancy-unittest")
        gold, brass = _mask_for(1), _mask_for(2)
        store.enroll("gold::dev", gold)
        store.enroll("brass::dev", brass)
        store.enroll("dev", _mask_for(3))
        assert len(store) == 3
        assert (
            store.lookup("gold::dev").reference_seed_bits(128)
            == gold.reference_seed_bits(128)
        ).all()
        assert (
            store.lookup("brass::dev").reference_seed_bits(128)
            == brass.reference_seed_bits(128)
        ).all()
        assert store.client_ids() == ("brass::dev", "dev", "gold::dev")


def _build_authority(max_distance=1):
    return CertificateAuthority(
        search_service=RBCSearchService(
            BatchSearchExecutor("sha1", batch_size=4096),
            max_distance=max_distance,
        ),
        salt=HashChainSalt(),
        keygen=get_keygen("aes-128"),
        registration_authority=RegistrationAuthority(),
        image_db=EncryptedImageDatabase(b"tenancy-e2e-mkey"),
        hash_name="sha1",
    )


def _planted_digest(authority, client_id, tenant_id=None, distance=0):
    seed = authority.enrolled_seed(client_id, tenant_id=tenant_id)
    algo = get_hash(authority.hash_name)
    if distance == 0:
        return algo.hash_seed(seed)
    return algo.hash_seed(flip_bits(seed, list(range(distance))))


class TestAuthorityTenancy:
    def test_same_client_id_two_tenants_distinct_records(self):
        authority = _build_authority()
        authority.enroll("dev", _mask_for(1), tenant_id="gold")
        authority.enroll("dev", _mask_for(2), tenant_id="brass")
        gold_seed = authority.enrolled_seed("dev", tenant_id="gold")
        brass_seed = authority.enrolled_seed("dev", tenant_id="brass")
        assert gold_seed != brass_seed
        result = authority.run_search(
            "dev", _planted_digest(authority, "dev", "gold"),
            tenant_id="gold",
        )
        assert result.found
        key = authority.issue_public_key("dev", result.seed, tenant_id="gold")
        ra = authority.registration_authority
        assert ra.lookup("gold::dev") == key
        assert "brass::dev" not in ra
        assert "dev" not in ra

    def test_legacy_enrollment_stays_reachable_without_tenant(self):
        authority = _build_authority()
        authority.enroll("dev", _mask_for(3))
        assert authority.run_search(
            "dev", _planted_digest(authority, "dev")
        ).found


class TestServerTenancy:
    def test_fifo_front_door_sheds_over_budget_tenant(self):
        """Named for the FIFO pool it first ran on (deleted in PR 18): the
        refusal at the door and the refill are the dispatcher policy's."""
        clock = ManualClock()
        registry = TenantRegistry(
            tenants=(
                TenantContext(
                    "gold", quota=TenantQuota(lookup_rate=1.0, burst=1.0)
                ),
            ),
            clock=clock,
        )
        authority = _build_authority()
        for i in range(3):
            authority.enroll(f"c{i}", _mask_for(10 + i), tenant_id="gold")
        digests = [
            _planted_digest(authority, f"c{i}", "gold") for i in range(3)
        ]
        with ConcurrentCAServer(
            authority, scheduler=build_engine("sched:sha1,bs=4096"),
            tenants=registry,
        ) as server:
            first = server.submit("c0", digests[0], tenant_id="gold")
            with pytest.raises(RequestShed) as excinfo:
                server.submit("c1", digests[1], tenant_id="gold")
            assert excinfo.value.refusal is Refusal.TENANT_QUOTA
            clock.advance(1.0)  # budget refills, service resumes
            second = server.submit("c2", digests[2], tenant_id="gold")
            assert first.result(timeout=60).authenticated
            assert second.result(timeout=60).authenticated
        snapshot = server.metrics.snapshot()
        assert snapshot["shed"] == 1
        assert snapshot["shed_tenant_quota"] == 1
        assert server.metrics.shed_breakdown() == {Refusal.TENANT_QUOTA.reason: 1}
        tenants = server.metrics.tenant_snapshot()
        assert tenants["gold"]["submitted"] == 2
        assert tenants["gold"]["shed"] == 1
        assert tenants["gold"]["quota_hits"] == 1
        # A shed request leaves no in-flight entry behind: the same
        # client can come straight back once the bucket refills.
        assert server._in_flight_clients == set()

    def test_scheduler_mode_shares_one_registry_with_the_policy(self):
        clock = ManualClock()
        registry = TenantRegistry(
            tenants=(
                TenantContext(
                    "gold", quota=TenantQuota(lookup_rate=1.0, burst=1.0)
                ),
            ),
            clock=clock,
        )
        authority = _build_authority()
        for i in range(2):
            authority.enroll(f"c{i}", _mask_for(20 + i), tenant_id="gold")
        digests = [
            _planted_digest(authority, f"c{i}", "gold") for i in range(2)
        ]
        engine = build_engine("sched:sha1,bs=4096")
        with ConcurrentCAServer(
            authority, scheduler=engine, tenants=registry
        ) as server:
            # The front door wired its registry into the admission
            # policy: exactly one bucket, charged exactly once.
            assert engine.scheduler.policy.tenants is registry
            first = server.submit("c0", digests[0], tenant_id="gold")
            with pytest.raises(RequestShed) as excinfo:
                server.submit("c1", digests[1], tenant_id="gold")
            assert excinfo.value.refusal is Refusal.TENANT_QUOTA
            assert first.result(timeout=60).authenticated
        snapshot = server.metrics.snapshot()
        assert snapshot["shed_tenant_quota"] == 1
        assert snapshot["completed"] == 1
        tenants = server.metrics.tenant_snapshot()
        assert tenants["gold"]["quota_hits"] == 1

    @pytest.mark.parametrize("backend", ["dispatcher", "authority"])
    def test_bucket_charged_once_per_admission_never_for_a_refusal(
        self, backend
    ):
        """However the server got its dispatcher — handed in, or found as
        the authority's own engine — the policy's bucket is the one."""
        from repro.net.errors import ServerClosed

        clock = ManualClock()  # frozen: the bucket never refills
        registry = TenantRegistry(
            tenants=(
                TenantContext(
                    "gold", quota=TenantQuota(lookup_rate=1.0, burst=8.0)
                ),
            ),
            clock=clock,
        )

        def tokens():
            return registry.snapshot()["gold"]["tokens_available"]

        # Absent digests searched to d=3 under a short T: every admitted
        # request stays in flight far longer than the submits take.
        authority = _build_authority(max_distance=3)
        engine = build_engine("sched:sha1,bs=4096")
        if backend == "authority":
            authority.search_service = RBCSearchService(engine, max_distance=3)
        authority.search_service.time_threshold = 0.5
        for i in range(3):
            authority.enroll(f"c{i}", _mask_for(40 + i), tenant_id="gold")
        absent = b"\x5a" * 20
        server = ConcurrentCAServer(
            authority, max_queue=2, tenants=registry,
            scheduler=engine if backend == "dispatcher" else None,
        )
        assert server.scheduler is engine
        try:
            first = server.submit("c0", absent, tenant_id="gold")
            assert tokens() == 7.0
            with pytest.raises(ServerBusy, match="already has a search"):
                server.submit("c0", absent, tenant_id="gold")
            second = server.submit("c1", absent, tenant_id="gold")
            assert tokens() == 6.0
            with pytest.raises(ServerBusy, match="saturated"):
                server.submit("c2", absent, tenant_id="gold")
            assert tokens() == 6.0
        finally:
            server.close(wait=True)
        with pytest.raises(ServerClosed):
            server.submit("c2", absent, tenant_id="gold")
        assert tokens() == 6.0
        assert not first.result(timeout=1).authenticated
        assert not second.result(timeout=1).authenticated
        snapshot = server.metrics.snapshot()
        assert snapshot["submitted"] == snapshot["completed"] == 2
        assert snapshot["rejected_duplicate"] == snapshot["rejected_busy"] == 1
        assert snapshot["shed_tenant_quota"] == 0

    def test_untenanted_requests_ride_the_default_tenant_unchanged(self):
        authority = _build_authority()
        authority.enroll("legacy", _mask_for(30))
        digest = _planted_digest(authority, "legacy")
        with ConcurrentCAServer(
            authority, scheduler=build_engine("sched:sha1,bs=4096")
        ) as server:
            result = server.submit("legacy", digest).result(timeout=60)
        assert result.authenticated
        tenants = server.metrics.tenant_snapshot()
        assert set(tenants) == {DEFAULT_TENANT}
        assert tenants[DEFAULT_TENANT]["completed"] == 1


class TestWireTenancy:
    def test_tenant_rides_both_request_frames(self):
        handshake = HandshakeRequest("dev", tenant="gold")
        parsed = HandshakeRequest.from_bytes(handshake.to_bytes())
        assert parsed == handshake
        submission = DigestSubmission(
            "dev", b"\x01\x02", deadline_seconds=2.0, tenant="gold"
        )
        parsed = DigestSubmission.from_bytes(submission.to_bytes())
        assert parsed == submission

    def test_default_tenant_frames_are_byte_identical_to_legacy(self):
        frame = HandshakeRequest("dev").to_bytes()
        assert b"tenant" not in frame
        assert HandshakeRequest.from_bytes(frame).tenant == DEFAULT_TENANT
        frame = DigestSubmission("dev", b"\x01").to_bytes()
        assert b"tenant" not in frame
        assert DigestSubmission.from_bytes(frame).tenant == DEFAULT_TENANT

    def test_legacy_frame_without_tenant_key_parses_as_default(self):
        # A frame hand-built exactly as the pre-tenancy encoder wrote it.
        body = {"client_id": "dev", "type": "handshake_request"}
        canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
        body["crc"] = f"{zlib.crc32(canonical.encode()):08x}"
        raw = json.dumps(body, sort_keys=True, separators=(",", ":")).encode()
        parsed = HandshakeRequest.from_bytes(raw)
        assert parsed.client_id == "dev"
        assert parsed.tenant == DEFAULT_TENANT
