"""Hardened session layer and the opponent/attack analyses."""

import dataclasses

import numpy as np
import pytest

from repro import quick_setup
from repro.core.attack import (
    OpponentSimulator,
    avalanche_profile,
    digest_key_correlation,
)
from repro.core.salting import HashChainSalt, RotateSalt
from repro.keygen.interface import get_keygen
from repro.net.session import (
    SecureClientSession,
    SessionError,
    SessionManager,
)

MAC_KEY = b"enrollment-secret-0!"


@pytest.fixture
def secure_setup():
    authority, client, mask = quick_setup(seed=5, max_distance=1, noise_target_distance=1)
    manager = SessionManager(authority, rng=np.random.default_rng(0))
    manager.install_mac_key("client-0", MAC_KEY)
    session = SecureClientSession(client, MAC_KEY)
    return manager, session, mask


class TestSecureSessions:
    def test_happy_path(self, secure_setup):
        manager, session, mask = secure_setup
        challenge = manager.issue_challenge("client-0")
        digest = session.respond(challenge, reference_mask=mask)
        result = manager.accept_digest("client-0", challenge.nonce, digest)
        assert result.authenticated and result.public_key

    def test_nonce_binding_changes_digest(self, secure_setup):
        manager, session, mask = secure_setup
        a = manager.issue_challenge("client-0")
        b = manager.issue_challenge("client-0")
        assert a.nonce != b.nonce
        # Same PUF state read twice still yields nonce-distinct digests
        # with overwhelming probability.
        da = session.respond(a, reference_mask=mask)
        db = session.respond(b, reference_mask=mask)
        assert da != db

    def test_replay_rejected(self, secure_setup):
        manager, session, mask = secure_setup
        challenge = manager.issue_challenge("client-0")
        digest = session.respond(challenge, reference_mask=mask)
        manager.accept_digest("client-0", challenge.nonce, digest)
        with pytest.raises(SessionError):
            manager.accept_digest("client-0", challenge.nonce, digest)
        assert manager.replays_rejected == 1

    def test_unknown_nonce_rejected(self, secure_setup):
        manager, _session, _mask = secure_setup
        with pytest.raises(SessionError):
            manager.accept_digest("client-0", b"\x00" * 16, b"\x00" * 32)

    def test_cross_client_nonce_rejected(self, secure_setup):
        manager, session, mask = secure_setup
        manager.install_mac_key("client-1", MAC_KEY)
        challenge = manager.issue_challenge("client-0")
        digest = session.respond(challenge, reference_mask=mask)
        with pytest.raises(SessionError):
            manager.accept_digest("client-1", challenge.nonce, digest)

    def test_expired_nonce_rejected(self, secure_setup):
        authority, client, mask = quick_setup(
            seed=5, max_distance=1, noise_target_distance=1
        )
        clock = {"now": 0.0}
        manager = SessionManager(
            authority,
            nonce_lifetime_seconds=10.0,
            rng=np.random.default_rng(0),
            clock=lambda: clock["now"],
        )
        manager.install_mac_key("client-0", MAC_KEY)
        session = SecureClientSession(client, MAC_KEY)
        challenge = manager.issue_challenge("client-0")
        digest = session.respond(challenge, reference_mask=mask)
        clock["now"] = 11.0
        with pytest.raises(SessionError):
            manager.accept_digest("client-0", challenge.nonce, digest)

    def test_forged_challenge_rejected_by_client(self, secure_setup):
        manager, session, mask = secure_setup
        challenge = manager.issue_challenge("client-0")
        forged = dataclasses.replace(challenge, mac=b"\x00" * len(challenge.mac))
        with pytest.raises(SessionError):
            session.respond(forged, reference_mask=mask)

    def test_tampered_challenge_address_rejected(self, secure_setup):
        manager, session, mask = secure_setup
        secure = manager.issue_challenge("client-0")
        tampered_inner = dataclasses.replace(secure.challenge, address=1)
        tampered = dataclasses.replace(secure, challenge=tampered_inner)
        with pytest.raises(SessionError):
            session.respond(tampered, reference_mask=mask)

    def test_missing_mac_key(self, secure_setup):
        manager, _, _ = secure_setup
        with pytest.raises(SessionError):
            manager._key_for("stranger")

    def test_weak_mac_key_rejected(self, secure_setup):
        manager, _, _ = secure_setup
        with pytest.raises(ValueError):
            manager.install_mac_key("x", b"short")


class TestNonceBoundSearch:
    """One vectorized body for every hash: same walk, same counts."""

    @pytest.mark.parametrize("hash_name", ["sha1", "sha256", "sha3-256", "sha512"])
    def test_every_hash_walks_shells_in_rank_order(self, hash_name, rng):
        from repro._bitutils import flip_bits
        from repro.engines import build_engine
        from repro.hashes.registry import get_hash
        from repro.net.session import _NonceBindingEngine

        base, nonce = rng.bytes(32), rng.bytes(16)
        planted = flip_bits(base, [3, 200])
        algo = get_hash(hash_name)
        bound = _NonceBindingEngine(
            build_engine(f"batch:{hash_name},bs=4096"), hash_name, nonce
        )
        result = bound.search(base, algo.scalar(planted + nonce), 2)
        assert (result.found, result.seed, result.distance) == (True, planted, 2)
        # {3, 200} ranks 958th of the 2-subsets: the shell's first 4096-row batch.
        assert result.seeds_hashed == 1 + 256 + 4096
        assert result.engine == bound.describe()
        miss = bound.search(base, algo.scalar(planted + nonce), 1)
        assert not miss.found and miss.seeds_hashed == 1 + 256


class TestOpponent:
    def test_brute_force_never_wins_in_budget(self, rng):
        from repro.hashes.sha3 import sha3_256

        simulator = OpponentSimulator("sha3-256", batch_size=4096)
        estimate = simulator.brute_force(
            sha3_256(rng.bytes(32)), budget_seconds=0.2, rng=rng
        )
        assert not estimate.matched
        assert estimate.seeds_tried > 0
        assert estimate.expected_years_full_space > 1e40

    def test_summary_format(self, rng):
        from repro.hashes.sha1 import sha1

        simulator = OpponentSimulator("sha1", batch_size=2048)
        estimate = simulator.brute_force(sha1(rng.bytes(32)), 0.1, rng=rng)
        assert "years" in estimate.summary()

    def test_informed_advantage_matches_complexity(self):
        simulator = OpponentSimulator()
        assert simulator.informed_search_advantage(5) > 1e60


class TestStatisticalSecurity:
    @pytest.mark.parametrize("hash_name", ["sha1", "sha256", "sha3-256"])
    def test_avalanche_near_half(self, hash_name, rng):
        mean, std = avalanche_profile(hash_name, samples=150, rng=rng)
        assert abs(mean - 0.5) < 0.03
        assert std < 0.08

    def test_salted_key_uncorrelated_with_digest(self, rng):
        corr = digest_key_correlation(
            HashChainSalt(), get_keygen("aes-128"), samples=60, rng=rng
        )
        # |r| over 128 paired bits has stdev ~ 0.09; the mean of |r|
        # concentrates well below 0.2 when independent.
        assert corr < 0.2

    def test_rotation_salt_also_decouples(self, rng):
        corr = digest_key_correlation(
            RotateSalt(96), get_keygen("aes-128"), samples=60, rng=rng
        )
        assert corr < 0.2
