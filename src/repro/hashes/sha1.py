"""SHA-1 from scratch (FIPS 180-4).

Included for parity with the paper's evaluation: SHA-1 is no longer
considered collision-resistant, but its low register footprint makes it
the throughput-friendly end of the comparison (65k APU PEs vs SHA-3's
26k). Never use it for new security designs.
"""

from __future__ import annotations

import struct

__all__ = ["SHA1", "sha1"]

_MASK32 = 0xFFFFFFFF


def _rotl32(x: int, s: int) -> int:
    return ((x << s) | (x >> (32 - s))) & _MASK32


class SHA1:
    """Incremental SHA-1 with the familiar update()/digest() interface."""

    digest_size = 20
    block_size = 64
    name = "sha1"

    _H0 = (0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0)

    def __init__(self, data: bytes = b""):
        self._h = list(self._H0)
        self._buffer = b""
        self._length = 0
        if data:
            self.update(data)

    def update(self, data: bytes) -> SHA1:
        """Absorb more message bytes; returns self for chaining."""
        self._length += len(data)
        self._buffer += data
        while len(self._buffer) >= 64:
            self._compress(self._buffer[:64])
            self._buffer = self._buffer[64:]
        return self

    def _compress(self, block: bytes) -> None:
        w = list(struct.unpack(">16I", block))
        for t in range(16, 80):
            w.append(_rotl32(w[t - 3] ^ w[t - 8] ^ w[t - 14] ^ w[t - 16], 1))
        a, b, c, d, e = self._h
        for t in range(80):
            if t < 20:
                f = (b & c) | (~b & d)
                k = 0x5A827999
            elif t < 40:
                f = b ^ c ^ d
                k = 0x6ED9EBA1
            elif t < 60:
                f = (b & c) | (b & d) | (c & d)
                k = 0x8F1BBCDC
            else:
                f = b ^ c ^ d
                k = 0xCA62C1D6
            tmp = (_rotl32(a, 5) + f + e + k + w[t]) & _MASK32
            e, d, c, b, a = d, c, _rotl32(b, 30), a, tmp
        self._h = [
            (h + v) & _MASK32 for h, v in zip(self._h, (a, b, c, d, e), strict=True)
        ]

    def digest(self) -> bytes:
        # Finalize on a copy so update() can continue afterwards.
        """The digest of everything absorbed so far (non-finalizing)."""
        h = list(self._h)
        buffer = self._buffer
        bit_length = self._length * 8
        padded = buffer + b"\x80"
        pad_zeros = (56 - len(padded) % 64) % 64
        padded += b"\x00" * pad_zeros + struct.pack(">Q", bit_length)
        clone = SHA1()
        clone._h = h
        for off in range(0, len(padded), 64):
            clone._compress(padded[off : off + 64])
        return struct.pack(">5I", *clone._h)

    def hexdigest(self) -> str:
        """The digest as a hex string."""
        return self.digest().hex()

    def copy(self) -> SHA1:
        """An independent clone of the current hash state."""
        clone = SHA1()
        clone._h = list(self._h)
        clone._buffer = self._buffer
        clone._length = self._length
        return clone


def sha1(data: bytes) -> bytes:
    """One-shot SHA-1 digest of ``data``."""
    return SHA1(data).digest()
