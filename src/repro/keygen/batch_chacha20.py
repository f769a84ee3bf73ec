"""NumPy-vectorized ChaCha20 block function over batches of distinct keys.

Each lane computes one 64-byte keystream block under its own 32-byte key
(fixed counter/nonce) — the ChaCha20 variant of the key-agile original
RBC search evaluated by Wright et al. (2021).
"""

from __future__ import annotations

import numpy as np

__all__ = ["chacha20_block_batch"]

_U32 = np.uint32
_CONSTANTS = (0x61707865, 0x3320646E, 0x79622D32, 0x6B206574)


def _rotl(x: np.ndarray, s: int) -> np.ndarray:
    return (x << _U32(s)) | (x >> _U32(32 - s))


def _quarter(state: list[np.ndarray], a: int, b: int, c: int, d: int) -> None:
    state[a] = state[a] + state[b]
    state[d] = _rotl(state[d] ^ state[a], 16)
    state[c] = state[c] + state[d]
    state[b] = _rotl(state[b] ^ state[c], 12)
    state[a] = state[a] + state[b]
    state[d] = _rotl(state[d] ^ state[a], 8)
    state[c] = state[c] + state[d]
    state[b] = _rotl(state[b] ^ state[c], 7)


def chacha20_block_batch(
    keys: np.ndarray, counter: int = 0, nonce: bytes = b"\x00" * 12
) -> np.ndarray:
    """One keystream block per key: ``(N, 32)`` uint8 keys -> ``(N, 64)`` uint8.

    Row i equals ``chacha20_block(keys[i], counter, nonce)``.
    """
    keys = np.asarray(keys, dtype=np.uint8)
    if keys.ndim != 2 or keys.shape[1] != 32:
        raise ValueError("expected (N, 32) uint8 keys")
    if len(nonce) != 12:
        raise ValueError("nonce must be 12 bytes")
    n = keys.shape[0]
    key_words = np.ascontiguousarray(keys).view("<u4")  # (N, 8)
    nonce_words = np.frombuffer(nonce, dtype="<u4")

    state: list[np.ndarray] = [
        np.full(n, c, dtype=_U32) for c in _CONSTANTS
    ]
    state += [key_words[:, i].copy() for i in range(8)]
    state.append(np.full(n, counter & 0xFFFFFFFF, dtype=_U32))
    state += [np.full(n, w, dtype=_U32) for w in nonce_words]

    working = [s.copy() for s in state]
    for _ in range(10):
        _quarter(working, 0, 4, 8, 12)
        _quarter(working, 1, 5, 9, 13)
        _quarter(working, 2, 6, 10, 14)
        _quarter(working, 3, 7, 11, 15)
        _quarter(working, 0, 5, 10, 15)
        _quarter(working, 1, 6, 11, 12)
        _quarter(working, 2, 7, 8, 13)
        _quarter(working, 3, 4, 9, 14)
    out_words = np.stack(
        [w + s for w, s in zip(working, state, strict=True)], axis=1
    )  # (N, 16) uint32
    return np.ascontiguousarray(out_words).view(np.uint8).reshape(n, 64)
