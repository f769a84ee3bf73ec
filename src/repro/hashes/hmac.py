"""HMAC (RFC 2104) over the from-scratch hash implementations.

Used by the hardened session layer (:mod:`repro.net.session`) to
authenticate handshake responses: a compromised network cannot redirect
a client to attacker-chosen PUF addresses without the enrollment-derived
MAC key. Validated against RFC 4231 / ``hmac`` stdlib vectors in tests.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.hashes.sha1 import sha1
from repro.hashes.sha3 import sha3_256
from repro.hashes.sha256 import sha256
from repro.hashes.sha512 import sha512

__all__ = ["hmac_digest", "hmac_verify"]

#: (hash function, block size in bytes) per supported algorithm.
_HASHES: dict[str, tuple[Callable[[bytes], bytes], int]] = {
    "sha1": (sha1, 64),
    "sha256": (sha256, 64),
    "sha512": (sha512, 128),
    # SHA-3 needs no HMAC (sponge keying suffices), but HMAC-SHA3 is
    # standardized; rate-derived block size per FIPS 202 / NIST guidance.
    "sha3-256": (sha3_256, 136),
}


def hmac_digest(key: bytes, message: bytes, hash_name: str = "sha256") -> bytes:
    """HMAC(key, message) with the named from-scratch hash."""
    if hash_name not in _HASHES:
        raise KeyError(f"unsupported HMAC hash {hash_name!r}; options: {sorted(_HASHES)}")
    hash_fn, block_size = _HASHES[hash_name]
    if len(key) > block_size:
        key = hash_fn(key)
    key = key.ljust(block_size, b"\x00")
    inner = hash_fn(bytes(k ^ 0x36 for k in key) + message)
    return hash_fn(bytes(k ^ 0x5C for k in key) + inner)


def hmac_verify(
    key: bytes, message: bytes, tag: bytes, hash_name: str = "sha256"
) -> bool:
    """Constant-time-ish tag comparison (length-independent accumulate)."""
    expected = hmac_digest(key, message, hash_name)
    if len(tag) != len(expected):
        return False
    diff = 0
    for a, b in zip(tag, expected, strict=True):
        diff |= a ^ b
    return diff == 0
