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
from dataclasses import dataclass, replace

import numpy as np

from repro.core.authentication import CertificateAuthority, Challenge
from repro.engines.result import SearchResult
from repro.engines.wrappers import EngineWrapper, describe_engine
from repro.hashes.hmac import hmac_digest, hmac_verify
from repro.hashes.registry import HashAlgorithm, get_hash
from repro.net.messages import AuthenticationResult
from repro.runtime.executor import BatchSearchExecutor

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


@dataclass(frozen=True)
class _NonceBoundHash:
    """``H(seed ‖ nonce)`` as the search body's one-way function."""

    base: HashAlgorithm
    nonce: bytes

    @property
    def name(self) -> str:
        return self.base.name

    def hash_seed(self, seed: bytes) -> bytes:
        return self.base.hash_seed(seed + self.nonce)

    def hash_seeds_batch(
        self, words: np.ndarray, fixed_padding: bool = True
    ) -> np.ndarray:
        """The nonce rides as the suffix of the batched digest, so every
        registered hash runs the bound search at batch throughput."""
        return self.base.hash_seeds_suffixed(words, self.nonce)

    def digest_to_words(self, public_value: bytes) -> np.ndarray:
        return self.base.digest_to_words(public_value)


class _NonceBindingEngine(EngineWrapper):
    """Adapter: search for H(candidate ‖ nonce) instead of H(candidate).

    Runs the one Algorithm 1 body
    (:meth:`~repro.runtime.executor.BatchSearchExecutor.search`) over
    :class:`_NonceBoundHash`, shell by shell in rank order. Only the
    search geometry (``batch_size``) is taken from the wrapped engine,
    via :class:`~repro.engines.wrappers.EngineWrapper`, so the bound
    search batches exactly like the engine it stands in for — even when
    that engine is itself a wrapper (a modeled device).
    """

    wrapper_name = "nonce-bound"

    def __init__(self, engine, hash_name: str, nonce: bytes):
        super().__init__(engine)
        self._algo = _NonceBoundHash(get_hash(hash_name), nonce)

    @property
    def algo(self) -> _NonceBoundHash:
        """The bound one-way function, not the wrapped engine's."""
        return self._algo

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
        result = BatchSearchExecutor(self.algo, batch_size=self.batch_size).search(
            base_seed, target_digest, max_distance, time_budget=time_budget
        )
        return replace(result, engine=self.describe())


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
