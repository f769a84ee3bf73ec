"""SHA-256 from scratch (FIPS 180-4).

Not part of the paper's evaluation (which pits SHA-1 against SHA-3), but
a natural extension: SHA-256 sits between them in both security margin
and state footprint, and the benchmark harness can sweep it alongside the
paper's two algorithms.
"""

from __future__ import annotations

import struct

__all__ = ["SHA256", "sha256"]

_MASK32 = 0xFFFFFFFF

_K = (
    0x428A2F98, 0x71374491, 0xB5C0FBCF, 0xE9B5DBA5, 0x3956C25B, 0x59F111F1,
    0x923F82A4, 0xAB1C5ED5, 0xD807AA98, 0x12835B01, 0x243185BE, 0x550C7DC3,
    0x72BE5D74, 0x80DEB1FE, 0x9BDC06A7, 0xC19BF174, 0xE49B69C1, 0xEFBE4786,
    0x0FC19DC6, 0x240CA1CC, 0x2DE92C6F, 0x4A7484AA, 0x5CB0A9DC, 0x76F988DA,
    0x983E5152, 0xA831C66D, 0xB00327C8, 0xBF597FC7, 0xC6E00BF3, 0xD5A79147,
    0x06CA6351, 0x14292967, 0x27B70A85, 0x2E1B2138, 0x4D2C6DFC, 0x53380D13,
    0x650A7354, 0x766A0ABB, 0x81C2C92E, 0x92722C85, 0xA2BFE8A1, 0xA81A664B,
    0xC24B8B70, 0xC76C51A3, 0xD192E819, 0xD6990624, 0xF40E3585, 0x106AA070,
    0x19A4C116, 0x1E376C08, 0x2748774C, 0x34B0BCB5, 0x391C0CB3, 0x4ED8AA4A,
    0x5B9CCA4F, 0x682E6FF3, 0x748F82EE, 0x78A5636F, 0x84C87814, 0x8CC70208,
    0x90BEFFFA, 0xA4506CEB, 0xBEF9A3F7, 0xC67178F2,
)


def _rotr32(x: int, s: int) -> int:
    return ((x >> s) | (x << (32 - s))) & _MASK32


class SHA256:
    """Incremental SHA-256 with the familiar update()/digest() interface."""

    digest_size = 32
    block_size = 64
    name = "sha256"

    _H0 = (
        0x6A09E667, 0xBB67AE85, 0x3C6EF372, 0xA54FF53A,
        0x510E527F, 0x9B05688C, 0x1F83D9AB, 0x5BE0CD19,
    )

    def __init__(self, data: bytes = b""):
        self._h = list(self._H0)
        self._buffer = b""
        self._length = 0
        if data:
            self.update(data)

    def update(self, data: bytes) -> SHA256:
        """Absorb more message bytes; returns self for chaining."""
        self._length += len(data)
        self._buffer += data
        while len(self._buffer) >= 64:
            self._compress(self._buffer[:64])
            self._buffer = self._buffer[64:]
        return self

    def _compress(self, block: bytes) -> None:
        w = list(struct.unpack(">16I", block))
        for t in range(16, 64):
            s0 = _rotr32(w[t - 15], 7) ^ _rotr32(w[t - 15], 18) ^ (w[t - 15] >> 3)
            s1 = _rotr32(w[t - 2], 17) ^ _rotr32(w[t - 2], 19) ^ (w[t - 2] >> 10)
            w.append((w[t - 16] + s0 + w[t - 7] + s1) & _MASK32)
        a, b, c, d, e, f, g, h = self._h
        for t in range(64):
            big_s1 = _rotr32(e, 6) ^ _rotr32(e, 11) ^ _rotr32(e, 25)
            ch = (e & f) ^ (~e & g)
            temp1 = (h + big_s1 + ch + _K[t] + w[t]) & _MASK32
            big_s0 = _rotr32(a, 2) ^ _rotr32(a, 13) ^ _rotr32(a, 22)
            maj = (a & b) ^ (a & c) ^ (b & c)
            temp2 = (big_s0 + maj) & _MASK32
            h, g, f, e, d, c, b, a = (
                g, f, e, (d + temp1) & _MASK32, c, b, a, (temp1 + temp2) & _MASK32,
            )
        self._h = [
            (x + v) & _MASK32
            for x, v in zip(self._h, (a, b, c, d, e, f, g, h), strict=True)
        ]

    def digest(self) -> bytes:
        """The digest of everything absorbed so far (non-finalizing)."""
        h = list(self._h)
        bit_length = self._length * 8
        padded = self._buffer + b"\x80"
        pad_zeros = (56 - len(padded) % 64) % 64
        padded += b"\x00" * pad_zeros + struct.pack(">Q", bit_length)
        clone = SHA256()
        clone._h = h
        for off in range(0, len(padded), 64):
            clone._compress(padded[off : off + 64])
        return struct.pack(">8I", *clone._h)

    def hexdigest(self) -> str:
        """The digest as a hex string."""
        return self.digest().hex()

    def copy(self) -> SHA256:
        """An independent clone of the current hash state."""
        clone = SHA256()
        clone._h = list(self._h)
        clone._buffer = self._buffer
        clone._length = self._length
        return clone


def sha256(data: bytes) -> bytes:
    """One-shot SHA-256 digest of ``data``."""
    return SHA256(data).digest()
