"""NumPy-vectorized SHA-512 over batches of 256-bit seeds.

Completes the batched family: 64-bit lanes, one 1024-bit block per
32-byte seed. Registered in the hash registry so every engine (batch
executor, parallel, cluster) can sweep it alongside the paper's two.
"""

from __future__ import annotations

import numpy as np

from repro._bitutils import SEED_WORDS64
from repro.hashes.sha512 import _H512, _K

__all__ = ["sha512_batch_seeds", "sha512_digest_to_words"]

_U64 = np.uint64
_K_NP = np.array(_K, dtype=_U64)


def _rotr64(x: np.ndarray, s: int) -> np.ndarray:
    return (x >> _U64(s)) | (x << _U64(64 - s))


def _message_block(words: np.ndarray, fixed_padding: bool = True) -> list[np.ndarray]:
    """One padded 1024-bit block (16 uint64 words) per seed."""
    words = np.asarray(words, dtype=_U64)
    if words.ndim != 2 or words.shape[1] != SEED_WORDS64:
        raise ValueError(f"expected (N, {SEED_WORDS64}) seed words")
    n = words.shape[0]
    zero = np.zeros(n, dtype=_U64)
    # Big-endian message words: seed word (3 - i) is message word i.
    block = [words[:, SEED_WORDS64 - 1 - i].copy() for i in range(SEED_WORDS64)]
    if fixed_padding:
        block.append(np.full(n, 1 << 63, dtype=_U64))  # 0x80 marker word
        block.extend(zero for _ in range(5, 15))
        block.append(np.full(n, 256, dtype=_U64))  # bit length
    else:
        # Generic path: compute geometry from the length at call time.
        msg_bytes = 32
        total_words = 16
        rest = [np.zeros(n, dtype=_U64) for _ in range(total_words - SEED_WORDS64)]
        marker_word, marker_byte = divmod(msg_bytes, 8)
        rest[marker_word - SEED_WORDS64] = rest[marker_word - SEED_WORDS64] | _U64(
            0x80 << (8 * (7 - marker_byte))
        )
        bit_length = msg_bytes * 8
        rest[-1] = rest[-1] | _U64(bit_length)
        block.extend(rest)
    return block


def sha512_batch_seeds(words: np.ndarray, fixed_padding: bool = True) -> np.ndarray:
    """SHA-512 digests of N seeds: ``(N, 4)`` uint64 -> ``(N, 8)`` uint64."""
    w = _message_block(words, fixed_padding)
    n = w[0].shape[0]
    state = [np.full(n, h, dtype=_U64) for h in _H512]
    a, b, c, d, e, f, g, h = state

    ring = list(w)
    for t in range(80):
        idx = t & 15
        if t >= 16:
            w15 = ring[(t - 15) & 15]
            w2 = ring[(t - 2) & 15]
            s0 = _rotr64(w15, 1) ^ _rotr64(w15, 8) ^ (w15 >> _U64(7))
            s1 = _rotr64(w2, 19) ^ _rotr64(w2, 61) ^ (w2 >> _U64(6))
            ring[idx] = ring[idx] + s0 + ring[(t - 7) & 15] + s1
        wt = ring[idx]
        big_s1 = _rotr64(e, 14) ^ _rotr64(e, 18) ^ _rotr64(e, 41)
        ch = (e & f) ^ (~e & g)
        temp1 = h + big_s1 + ch + _K_NP[t] + wt
        big_s0 = _rotr64(a, 28) ^ _rotr64(a, 34) ^ _rotr64(a, 39)
        maj = (a & b) ^ (a & c) ^ (b & c)
        temp2 = big_s0 + maj
        h, g, f, e, d, c, b, a = g, f, e, d + temp1, c, b, a, temp1 + temp2

    out = np.empty((n, 8), dtype=_U64)
    for i, (col, init) in enumerate(
        zip((a, b, c, d, e, f, g, h), _H512, strict=True)
    ):
        out[:, i] = col + _U64(init)
    return out


def sha512_digest_to_words(digest: bytes) -> np.ndarray:
    """A 64-byte SHA-512 digest as the ``(8,)`` uint64 comparison form."""
    if len(digest) != 64:
        raise ValueError("SHA-512 digests are 64 bytes")
    return np.frombuffer(digest, dtype=">u8").astype(_U64)
