"""Salting — decoupling the digest from the public key (Figure 1, steps 7-8).

Once the server recovers the client's seed ``S`` (because ``SHA(S)``
matched the client's digest ``M₁``), it must not derive the public key
from ``S`` directly: an opponent who observed ``M₁`` on the wire could
otherwise confirm a guessed seed against both the digest *and* the public
key. Instead both parties apply a pre-shared salt transformation to get
``S' = salt(S)`` and generate the key pair from ``S'`` — "such that there
is not a correspondence between the public key and the message digests."

The paper's example salt is a bit shift; we provide that plus two
stronger schemes behind one interface. A scheme is valid iff it is
deterministic and both sides share its parameters.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from repro._bitutils import SEED_BYTES, int_to_seed, rotate_left_int, seed_to_int
from repro.hashes.native import sha3_256

__all__ = ["SaltScheme", "RotateSalt", "XorSalt", "HashChainSalt"]


class SaltScheme(ABC):
    """A shared, deterministic seed transformation."""

    name: str

    @abstractmethod
    def apply(self, seed: bytes) -> bytes:
        """The salted seed ``S'`` for key generation."""

    def __call__(self, seed: bytes) -> bytes:
        if len(seed) != SEED_BYTES:
            raise ValueError(f"seed must be {SEED_BYTES} bytes")
        salted = self.apply(seed)
        if salted == seed:
            raise ValueError(
                "salt scheme returned the seed unchanged; the public key "
                "would correspond to the searched digest"
            )
        return salted


class RotateSalt(SaltScheme):
    """The paper's example: ``S`` is bit-rotated by a shared amount."""

    name = "rotate"

    def __init__(self, shift: int = 96):
        if shift % 256 == 0:
            raise ValueError("a zero rotation is not a salt")
        self.shift = shift

    def apply(self, seed: bytes) -> bytes:
        """The salted seed S' for key generation."""
        return int_to_seed(rotate_left_int(seed_to_int(seed), self.shift))


class XorSalt(SaltScheme):
    """XOR with a pre-shared 256-bit pad (established at enrollment)."""

    name = "xor"

    def __init__(self, pad: bytes):
        if len(pad) != SEED_BYTES:
            raise ValueError(f"pad must be {SEED_BYTES} bytes")
        if pad == bytes(SEED_BYTES):
            raise ValueError("an all-zero pad is not a salt")
        self.pad = pad

    def apply(self, seed: bytes) -> bytes:
        """The salted seed S' for key generation."""
        return bytes(a ^ b for a, b in zip(seed, self.pad))


class HashChainSalt(SaltScheme):
    """``S' = SHA3-256(S ‖ context)`` — one-way, context-separated.

    The strongest option: even an opponent who later learns ``S`` cannot
    link previously observed digests to public keys without the context
    string, and the map is one-way in both directions of analysis.
    """

    name = "hash-chain"

    def __init__(self, context: bytes = b"rbc-salted/v1"):
        if not context:
            raise ValueError("context must be non-empty")
        self.context = context

    def apply(self, seed: bytes) -> bytes:
        """The salted seed S' for key generation."""
        return sha3_256(seed + self.context)
