"""Hardened session layer: nonces, replay protection, MAC'd handshakes.

Protocol-hardening extension beyond the paper (which assumes a benign
network for its measurements). Two attacks on the bare message flow are
closed here:

* **Challenge forgery** — an active attacker substituting its own PUF
  address/mask in the handshake response could steer the client into
  reading attacker-chosen cells. Challenges are therefore MAC'd with a
  per-client key installed at the secure enrollment facility (the one
  place the threat model allows a shared secret).
* **Digest replay** — an eavesdropper replaying an old ``M₁`` would be
  re-authenticated even though it never read the PUF. Every challenge
  carries a fresh nonce, the client binds its digest to the nonce
  (``M₁ = H(seed ‖ nonce)``), and the CA accepts each nonce once,
  within a freshness window.

The search is unchanged: the CA simply hashes ``candidate ‖ nonce``
instead of ``candidate`` — one extra absorbed block at most, preserving
the protocol's cost model.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.core.authentication import CertificateAuthority, Challenge
from repro.engines.result import SearchResult
from repro.engines.wrappers import EngineWrapper, describe_engine
from repro.hashes.hmac import hmac_digest, hmac_verify
from repro.hashes.registry import get_hash
from repro.net.messages import AuthenticationResult

__all__ = ["SessionError", "SecureChallenge", "SessionManager", "SecureClientSession"]

_NONCE_BYTES = 16


class SessionError(Exception):
    """A handshake or submission violated the session discipline."""


@dataclass(frozen=True)
class SecureChallenge:
    """A MAC'd, nonce-bound challenge."""

    challenge: Challenge
    nonce: bytes
    issued_at: float
    mac: bytes

    def mac_payload(self) -> bytes:
        """The byte string the challenge MAC covers."""
        return _challenge_payload(self.challenge, self.nonce)


def _challenge_payload(challenge: Challenge, nonce: bytes) -> bytes:
    usable_packed = np.packbits(challenge.usable.astype(np.uint8)).tobytes()
    return b"|".join(
        [
            challenge.client_id.encode(),
            str(challenge.address).encode(),
            str(challenge.window).encode(),
            usable_packed,
            str(challenge.bit_count).encode(),
            challenge.hash_name.encode(),
            nonce,
        ]
    )


class SessionManager:
    """CA-side session discipline around a CertificateAuthority."""

    def __init__(
        self,
        authority: CertificateAuthority,
        nonce_lifetime_seconds: float = 60.0,
        mac_hash: str = "sha3-256",
        rng: np.random.Generator | None = None,
        clock=time.monotonic,
    ):
        self.authority = authority
        self.nonce_lifetime = nonce_lifetime_seconds
        self.mac_hash = mac_hash
        self._rng = rng if rng is not None else np.random.default_rng()
        self._clock = clock
        self._mac_keys: dict[str, bytes] = {}
        #: nonce -> (client_id, issued_at); removed on use or expiry.
        self._outstanding: dict[bytes, tuple[str, float]] = {}
        self.replays_rejected = 0
        self.forgeries_rejected = 0

    # -- enrollment-time key installation --------------------------------

    def install_mac_key(self, client_id: str, mac_key: bytes) -> None:
        """Record the per-client MAC key (secure-facility step)."""
        if len(mac_key) < 16:
            raise ValueError("MAC key must be at least 16 bytes")
        self._mac_keys[client_id] = mac_key

    def _key_for(self, client_id: str) -> bytes:
        if client_id not in self._mac_keys:
            raise SessionError(f"no MAC key installed for {client_id!r}")
        return self._mac_keys[client_id]

    # -- handshake --------------------------------------------------------

    def issue_challenge(self, client_id: str) -> SecureChallenge:
        """A fresh, MAC'd, nonce-bound challenge."""
        self._sweep_expired()
        challenge = self.authority.issue_challenge(client_id)
        nonce = self._rng.bytes(_NONCE_BYTES)
        issued_at = self._clock()
        mac = hmac_digest(
            self._key_for(client_id),
            _challenge_payload(challenge, nonce),
            self.mac_hash,
        )
        self._outstanding[nonce] = (client_id, issued_at)
        return SecureChallenge(challenge, nonce, issued_at, mac)

    def _sweep_expired(self) -> None:
        now = self._clock()
        expired = [
            nonce
            for nonce, (_cid, at) in self._outstanding.items()
            if now - at > self.nonce_lifetime
        ]
        for nonce in expired:
            del self._outstanding[nonce]

    # -- digest submission -------------------------------------------------

    def accept_digest(
        self, client_id: str, nonce: bytes, digest: bytes
    ) -> AuthenticationResult:
        """Validate the nonce, run the nonce-bound search, consume the nonce."""
        self._sweep_expired()
        entry = self._outstanding.pop(nonce, None)
        if entry is None:
            self.replays_rejected += 1
            raise SessionError("unknown, expired, or already-used nonce")
        owner, _issued = entry
        if owner != client_id:
            self.replays_rejected += 1
            raise SessionError("nonce was issued to a different client")

        try:
            result = self._nonce_bound_search(client_id, nonce, digest)
        except Exception:
            # A search that raised must not burn the client's nonce: no
            # search completed, so re-registering it cannot enable a
            # replay, and the client's retry can reuse its challenge
            # instead of re-handshaking.
            self._outstanding[nonce] = entry
            raise
        public_key = None
        if result.found:
            assert result.seed is not None
            public_key = self.authority.issue_public_key(client_id, result.seed)
        return AuthenticationResult(
            client_id=client_id,
            authenticated=result.found,
            distance=result.distance,
            public_key=public_key,
            search_seconds=result.elapsed_seconds,
            timed_out=result.timed_out,
        )

    def _nonce_bound_search(
        self, client_id: str, nonce: bytes, digest: bytes
    ) -> SearchResult:
        """Algorithm 1, hashing ``candidate ‖ nonce`` per candidate.

        Runs through the authority's search service with a nonce-binding
        adapter around its engine, so any engine (vectorized, parallel,
        cluster) gains replay protection unchanged.
        """
        service = self.authority.search_service
        engine = _NonceBindingEngine(
            service.engine, self.authority.hash_name, nonce
        )
        return engine.search(
            self.authority.enrolled_seed(client_id),
            digest,
            max_distance=service.max_distance,
            time_budget=service.time_threshold,
        )


class _NonceBindingEngine(EngineWrapper):
    """Adapter: search for H(candidate ‖ nonce) instead of H(candidate).

    The nonce rides as the suffix of the batched digest
    (:meth:`~repro.hashes.registry.HashAlgorithm.hash_seeds_suffixed`),
    so every registered hash runs the bound search at batch throughput,
    shell by shell in rank order.

    Search geometry (notably ``batch_size``) forwards from the wrapped
    engine via :class:`~repro.engines.wrappers.EngineWrapper`, so the
    bound search batches exactly like the engine it stands in for —
    even when that engine is itself a wrapper (a modeled device).
    """

    wrapper_name = "nonce-bound"

    def __init__(self, engine, hash_name: str, nonce: bytes):
        super().__init__(engine)
        self.algo = get_hash(hash_name)
        self.nonce = nonce

    def describe(self) -> str:
        return f"nonce-bound[{self.algo.name}]({describe_engine(self.inner)})"

    def search(
        self,
        base_seed: bytes,
        target_digest: bytes,
        max_distance: int,
        time_budget: float | None = None,
    ) -> SearchResult:
        """Nonce-bound Algorithm 1."""
        from repro._bitutils import (
            SEED_BITS,
            positions_to_mask_words,
            seed_to_words,
            words_to_seed,
        )
        from repro.combinatorics.binomial import binomial
        from repro.combinatorics.ranking import unrank_lexicographic_batch

        engine = self.describe()
        start = time.perf_counter()

        def result(found_seed=None, distance=None, timed_out=False) -> SearchResult:
            return SearchResult(
                found_seed is not None, found_seed, distance, hashed,
                time.perf_counter() - start, timed_out=timed_out, engine=engine,
            )

        target_words = self.algo.digest_to_words(target_digest)
        base_words = seed_to_words(base_seed)
        hashed = 1
        if self.algo.hash_seed(base_seed + self.nonce) == target_digest:
            return result(base_seed, 0)
        for distance in range(1, max_distance + 1):
            total = binomial(SEED_BITS, distance)
            for lo in range(0, total, self.batch_size):
                hi = min(lo + self.batch_size, total)
                ranks = np.arange(lo, hi, dtype=np.uint64)
                positions = unrank_lexicographic_batch(SEED_BITS, distance, ranks)
                masks = positions_to_mask_words(positions)
                candidates = base_words[None, :] ^ masks
                digests = self.algo.hash_seeds_suffixed(candidates, self.nonce)
                hashed += candidates.shape[0]
                matches = np.flatnonzero((digests == target_words).all(axis=1))
                if matches.size:
                    return result(
                        words_to_seed(candidates[int(matches[0])]), distance
                    )
                if (
                    time_budget is not None
                    and time.perf_counter() - start > time_budget
                ):
                    return result(timed_out=True)
        return result()


class SecureClientSession:
    """Client-side counterpart: verify the MAC, bind the digest."""

    def __init__(self, device, mac_key: bytes, mac_hash: str = "sha3-256"):
        self.device = device
        self.mac_key = mac_key
        self.mac_hash = mac_hash

    def respond(self, secure: SecureChallenge, reference_mask=None) -> bytes:
        """Verify challenge authenticity, read the PUF, bind to the nonce."""
        if not hmac_verify(
            self.mac_key, secure.mac_payload(), secure.mac, self.mac_hash
        ):
            raise SessionError("challenge MAC verification failed")
        challenge = secure.challenge
        readout = self.device.puf.read(challenge.address, challenge.window)
        bits = readout.bits[challenge.usable][: challenge.bit_count]
        if self.device.noise_target_distance is not None and reference_mask is not None:
            from repro.puf.noise import inject_noise_to_distance

            reference = reference_mask.reference_seed_bits(challenge.bit_count)
            bits = inject_noise_to_distance(
                bits, reference, self.device.noise_target_distance, self.device._rng
            )
        seed = np.packbits(bits).tobytes()
        return get_hash(challenge.hash_name).hash_seed(seed + secure.nonce)
