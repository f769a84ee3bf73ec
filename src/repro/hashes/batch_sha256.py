"""NumPy-vectorized SHA-256 over batches of 256-bit seeds.

Same one-hash-per-lane mapping as :mod:`repro.hashes.batch_sha1`; provided
as the SHA-2 point in the design space between SHA-1 (cheapest) and SHA-3
(largest state footprint).
"""

from __future__ import annotations

import numpy as np

from repro.hashes.batch_sha1 import _padded_block_fixed, _padded_block_generic

__all__ = ["sha256_batch_seeds", "sha256_digest_to_words", "SHA256_INITIAL_STATE"]

_U32 = np.uint32

SHA256_INITIAL_STATE = (
    0x6A09E667, 0xBB67AE85, 0x3C6EF372, 0xA54FF53A,
    0x510E527F, 0x9B05688C, 0x1F83D9AB, 0x5BE0CD19,
)

_K = np.array([
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
], dtype=_U32)


def _rotr32(x: np.ndarray, s: int) -> np.ndarray:
    return (x >> _U32(s)) | (x << _U32(32 - s))


def sha256_batch_seeds(words: np.ndarray, fixed_padding: bool = True) -> np.ndarray:
    """SHA-256 digests of N 256-bit seeds: ``(N, 4)`` uint64 -> ``(N, 8)`` uint32."""
    block = (_padded_block_fixed if fixed_padding else _padded_block_generic)(words)
    n = block[0].shape[0]

    state = [np.full(n, h, dtype=_U32) for h in SHA256_INITIAL_STATE]
    a, b, c, d, e, f, g, h = state

    w = list(block)  # 16-deep ring buffer
    for t in range(64):
        idx = t & 15
        if t >= 16:
            w15 = w[(t - 15) & 15]
            w2 = w[(t - 2) & 15]
            s0 = _rotr32(w15, 7) ^ _rotr32(w15, 18) ^ (w15 >> _U32(3))
            s1 = _rotr32(w2, 17) ^ _rotr32(w2, 19) ^ (w2 >> _U32(10))
            w[idx] = w[idx] + s0 + w[(t - 7) & 15] + s1
        wt = w[idx]
        big_s1 = _rotr32(e, 6) ^ _rotr32(e, 11) ^ _rotr32(e, 25)
        ch = (e & f) ^ (~e & g)
        temp1 = h + big_s1 + ch + _K[t] + wt
        big_s0 = _rotr32(a, 2) ^ _rotr32(a, 13) ^ _rotr32(a, 22)
        maj = (a & b) ^ (a & c) ^ (b & c)
        temp2 = big_s0 + maj
        h, g, f, e, d, c, b, a = g, f, e, d + temp1, c, b, a, temp1 + temp2

    out = np.empty((n, 8), dtype=_U32)
    for i, (col, h0) in enumerate(
        zip((a, b, c, d, e, f, g, h), SHA256_INITIAL_STATE, strict=True)
    ):
        out[:, i] = col + _U32(h0)
    return out


def sha256_digest_to_words(digest: bytes) -> np.ndarray:
    """A 32-byte SHA-256 digest as the ``(8,)`` uint32 comparison form."""
    if len(digest) != 32:
        raise ValueError("SHA-256 digests are 32 bytes")
    return np.frombuffer(digest, dtype=">u4").astype(_U32)
