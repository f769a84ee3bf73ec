"""One-time session keys in use — closing the loop the paper opens.

The paper's motivation: PUF + RBC gives clients *one-time* key pairs, so
"even if an attacker was able to recover a client's private key, it
would become invalid after a short time." This module demonstrates the
keys actually working, end to end:

1. RBC-SALTED authenticates the client; the CA salts the recovered seed,
   generates an LWE key pair from it, and registers the *exported*
   public key (matrix seed ρ ‖ b) at the RA.
2. Any service fetches that public key from the RA and encrypts a
   session token to the device — never touching PUF material.
3. The client re-derives the same salted seed locally (it knows its own
   PUF read and the shared salt), re-derives the secret, decrypts.
4. After the next authentication the RA holds a new key; tokens under
   the old one are dead letters.

The key generator must be seed-deterministic for step 3 — the defining
constraint RBC puts on the cryptosystem, satisfied here by the toy
module-LWE scheme (reproduction-grade, not production crypto).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.authentication import CertificateAuthority, RegistrationAuthority
from repro.core.salting import SaltScheme
from repro.hashes.native import sha3_256
from repro.keygen.lwe import ToyModuleLWE

__all__ = ["SessionToken", "SessionService", "SessionClient", "LWESessionKeygen"]


class LWESessionKeygen:
    """KeyGenerator-compatible wrapper that registers *usable* keys.

    Drop-in for the CA's ``keygen``: ``public_key`` returns the exported
    (ρ ‖ b) form so RA consumers can encrypt to it.
    """

    def __init__(self, preset: str = "light"):
        self.scheme = ToyModuleLWE(preset)
        self.name = f"lwe-session-{preset}"
        self.relative_cost = 454.0  # same regime as the lightsaber entry

    def public_key(self, seed: bytes) -> bytes:
        """Exported (rho || b) public key for the salted seed."""
        if len(seed) != 32:
            raise ValueError("RBC seeds are 32 bytes")
        return self.scheme.export_public(seed)


@dataclass(frozen=True)
class SessionToken:
    """An encrypted session establishment message."""

    client_id: str
    ciphertext_u: np.ndarray
    ciphertext_v: np.ndarray
    #: Integrity tag over the token bits (so tampering is detectable
    #: after decryption).
    check: bytes


class SessionService:
    """A third party that talks to authenticated devices via the RA."""

    def __init__(
        self,
        registration_authority: RegistrationAuthority,
        keygen: LWESessionKeygen,
        rng: np.random.Generator | None = None,
    ):
        self.ra = registration_authority
        self.keygen = keygen
        self._rng = rng if rng is not None else np.random.default_rng()

    def establish(self, client_id: str) -> tuple[SessionToken, bytes]:
        """Encrypt a fresh session token to the client's registered key.

        Returns ``(token_message, expected_session_secret)`` — the
        service keeps the secret to verify the session later.
        """
        public_key = self.ra.lookup(client_id)
        scheme = self.keygen.scheme
        token_bits = self._rng.integers(0, 2, scheme.degree).astype(np.uint8)
        u, v = scheme.encrypt_to_public(
            public_key, token_bits, self._rng.bytes(32)
        )
        secret = sha3_256(np.packbits(token_bits).tobytes())
        return (
            SessionToken(
                client_id=client_id,
                ciphertext_u=u,
                ciphertext_v=v,
                check=secret[:8],
            ),
            secret,
        )


class SessionClient:
    """Device-side session establishment: re-derive, decrypt, confirm."""

    def __init__(self, salt: SaltScheme, keygen: LWESessionKeygen):
        self.salt = salt
        self.keygen = keygen

    def open_token(self, token: SessionToken, puf_seed: bytes) -> bytes | None:
        """Decrypt a session token using the device's own PUF seed.

        Returns the session secret, or ``None`` if the token does not
        verify (wrong key epoch, tampering, or a stale registration).
        """
        salted = self.salt(puf_seed)
        bits = self.keygen.scheme.decrypt(
            salted, (token.ciphertext_u, token.ciphertext_v)
        )
        secret = sha3_256(np.packbits(bits).tobytes())
        if secret[:8] != token.check:
            return None
        return secret


def run_session_flow(
    authority: CertificateAuthority,
    client_id: str,
    client_puf_seed: bytes,
    rng: np.random.Generator | None = None,
) -> tuple[bytes | None, bytes]:
    """Convenience: service establishes, client opens; returns both views."""
    keygen = authority.keygen
    if not isinstance(keygen, LWESessionKeygen):
        raise TypeError("authority must use an LWESessionKeygen for sessions")
    service = SessionService(authority.registration_authority, keygen, rng=rng)
    token, expected = service.establish(client_id)
    client = SessionClient(authority.salt, keygen)
    return client.open_token(token, client_puf_seed), expected
