"""NumPy-vectorized SPECK-128/128 over batches of distinct keys.

SPECK's two-word ARX round maps perfectly onto uint64 lanes; like the
batch AES kernel, each lane runs an independent key schedule — the
key-agile pattern of the original RBC search.
"""

from __future__ import annotations

import numpy as np

__all__ = ["speck128_encrypt_batch"]

_ROUNDS = 32
_U64 = np.uint64


def _ror(x: np.ndarray, s: int) -> np.ndarray:
    return (x >> _U64(s)) | (x << _U64(64 - s))


def _rol(x: np.ndarray, s: int) -> np.ndarray:
    return (x << _U64(s)) | (x >> _U64(64 - s))


def _round(
    x: np.ndarray, y: np.ndarray, k: np.ndarray | np.uint64
) -> tuple[np.ndarray, np.ndarray]:
    x = _ror(x, 8) + y
    x ^= k
    y = _rol(y, 3) ^ x
    return x, y


def speck128_encrypt_batch(keys: np.ndarray, plaintexts: np.ndarray) -> np.ndarray:
    """Encrypt N 16-byte blocks under N independent 16-byte keys.

    ``keys`` and ``plaintexts`` are ``(N, 16)`` uint8 (big-endian block
    layout, matching :func:`repro.keygen.speck.speck128_encrypt_block`);
    returns ``(N, 16)`` uint8 ciphertexts.
    """
    keys = np.asarray(keys, dtype=np.uint8)
    plaintexts = np.asarray(plaintexts, dtype=np.uint8)
    for name, arr in (("keys", keys), ("plaintexts", plaintexts)):
        if arr.ndim != 2 or arr.shape[1] != 16:
            raise ValueError(f"expected (N, 16) uint8 {name}")
    if keys.shape[0] != plaintexts.shape[0]:
        raise ValueError("keys and plaintexts must have the same batch size")

    # Big-endian byte pairs -> uint64 words (k1 = bytes 0..7, k0 = 8..15).
    def words(arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Split 16-byte rows into big-endian (hi, lo) uint64 words."""
        be = arr.reshape(-1, 2, 8)[:, :, ::-1]  # byteswap for big-endian
        w = np.ascontiguousarray(be).view("<u8").reshape(-1, 2)
        return w[:, 0].copy(), w[:, 1].copy()

    k1, k0 = words(keys)
    x, y = words(plaintexts)

    a, b = k0, k1
    for i in range(_ROUNDS):
        x, y = _round(x, y, a)
        b, a = _round(b, a, np.uint64(i))

    out_words = np.stack([x, y], axis=1)
    out = out_words.view(np.uint8).reshape(-1, 2, 8)[:, :, ::-1]
    return np.ascontiguousarray(out).reshape(-1, 16)
