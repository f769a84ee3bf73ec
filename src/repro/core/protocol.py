"""The full RBC-SALTED protocol flow (paper Figure 1).

Roles:

* :class:`ClientDevice` — holds the physical PUF; on a challenge it reads
  the named cells, applies the shared ternary selection, optionally
  injects noise (evaluation methodology / security hardening), and
  returns the SHA digest ``M₁`` of its 256-bit seed.
* :class:`~repro.core.authentication.CertificateAuthority` — runs the
  search, salts the recovered seed, generates the public key once, and
  updates the RA.
* :class:`RBCSaltedProtocol` — drives one authentication round between
  the two, with the timeout-and-retry behaviour of the paper (on a
  timeout the CA issues a fresh challenge; here the retry uses a new
  noisy read of the same cells).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.authentication import CertificateAuthority, Challenge
from repro.hashes.registry import get_hash
from repro.puf.model import SRAMPuf
from repro.puf.noise import inject_noise_to_distance
from repro.puf.ternary import TernaryMask

__all__ = ["ClientDevice", "AuthenticationOutcome", "RBCSaltedProtocol"]


@dataclass(frozen=True)
class AuthenticationOutcome:
    """What one protocol round produced."""

    authenticated: bool
    client_id: str
    distance: int | None
    seeds_hashed: int
    search_seconds: float
    attempts: int
    public_key: bytes | None
    timed_out: bool

    def __bool__(self) -> bool:
        return self.authenticated


class ClientDevice:
    """A low-power client: a PUF, a hash function, and nothing else.

    The client never performs error correction — that is the whole point
    of RBC. It reads cells, selects the shared stable subset, hashes, and
    sends the digest.
    """

    def __init__(
        self,
        client_id: str,
        puf: SRAMPuf,
        noise_target_distance: int | None = None,
        rng: np.random.Generator | None = None,
    ):
        self.client_id = client_id
        self.puf = puf
        self.noise_target_distance = noise_target_distance
        self._rng = rng if rng is not None else np.random.default_rng()

    def respond(self, challenge: Challenge, reference_mask: TernaryMask | None = None) -> bytes:
        """Read the PUF per the challenge and return the digest ``M₁``.

        ``reference_mask`` is only consulted when noise injection is
        enabled (the evaluation rig knows the enrollment image; a real
        hardened client would instead flip bits blindly).
        """
        readout = self.puf.read(challenge.address, challenge.window)
        bits = readout.bits[challenge.usable][: challenge.bit_count]
        if bits.shape[0] < challenge.bit_count:
            raise ValueError("challenge window yields too few usable bits")
        if self.noise_target_distance is not None:
            if reference_mask is not None:
                reference = reference_mask.reference_seed_bits(challenge.bit_count)
                bits = inject_noise_to_distance(
                    bits, reference, self.noise_target_distance, self._rng
                )
            else:
                from repro.puf.noise import flip_random_bits

                bits = flip_random_bits(
                    bits, self.noise_target_distance, self._rng
                )
        seed = np.packbits(bits).tobytes()
        return get_hash(challenge.hash_name).hash_seed(seed)


class RBCSaltedProtocol:
    """One-round (with retries) driver of the RBC-SALTED flow."""

    def __init__(self, authority: CertificateAuthority, max_attempts: int = 3):
        if max_attempts < 1:
            raise ValueError("max_attempts must be positive")
        self.authority = authority
        self.max_attempts = max_attempts

    def authenticate(
        self, client: ClientDevice, reference_mask: TernaryMask | None = None
    ) -> AuthenticationOutcome:
        """Run handshake -> digest -> search -> salt -> keygen -> RA update."""
        total_hashed = 0
        total_seconds = 0.0
        last_timed_out = False
        for attempt in range(1, self.max_attempts + 1):
            challenge = self.authority.issue_challenge(client.client_id)
            digest = client.respond(challenge, reference_mask=reference_mask)
            result = self.authority.run_search(client.client_id, digest)
            total_hashed += result.seeds_hashed
            total_seconds += result.elapsed_seconds
            last_timed_out = result.timed_out
            if result.found:
                assert result.seed is not None
                public_key = self.authority.issue_public_key(
                    client.client_id, result.seed
                )
                return AuthenticationOutcome(
                    authenticated=True,
                    client_id=client.client_id,
                    distance=result.distance,
                    seeds_hashed=total_hashed,
                    search_seconds=total_seconds,
                    attempts=attempt,
                    public_key=public_key,
                    timed_out=False,
                )
            # Timeout or exhausted ball: the CA restarts the handshake
            # (the fresh PUF read usually lands at a smaller distance).
        return AuthenticationOutcome(
            authenticated=False,
            client_id=client.client_id,
            distance=None,
            seeds_hashed=total_hashed,
            search_seconds=total_seconds,
            attempts=self.max_attempts,
            public_key=None,
            timed_out=last_timed_out,
        )
