"""NumPy-vectorized AES-128 over batches of *distinct* keys.

The original RBC search pattern is unusual for AES acceleration: every
candidate seed yields a *different key* (key agility), so the kernel must
run N key schedules and N encryptions in parallel — exactly what prior
RBC work implemented in CUDA. One array lane per candidate:

* state: ``(N, 16)`` uint8, column-major within each row (FIPS 197);
* round keys: 11 x ``(N, 16)`` uint8, expanded vectorized;
* SubBytes via table gather, MixColumns via xtime table algebra.

Validated against the scalar FIPS-197 implementation in the tests; used
by :class:`repro.runtime.original_batch.BatchOriginalRBCSearch` to run
the Table 7 AES baseline live at reduced scale.
"""

from __future__ import annotations

import numpy as np

from repro.keygen.aes import _RCON, _SBOX_NP

__all__ = ["aes128_encrypt_batch", "expand_keys_batch"]

# xtime (multiplication by 2 in GF(2^8)) as a table.
_XTIME = np.array(
    [((x << 1) ^ 0x1B) & 0xFF if x & 0x80 else (x << 1) & 0xFF for x in range(256)],
    dtype=np.uint8,
)

#: ShiftRows as a gather permutation on the column-major state layout:
#: output byte (r + 4c) comes from input byte (r + 4*((c + r) % 4)).
_SHIFT_ROWS_PERM = np.array(
    [r + 4 * ((c + r) % 4) for c in range(4) for r in range(4)], dtype=np.intp
)


def expand_keys_batch(keys: np.ndarray) -> list[np.ndarray]:
    """Vectorized AES-128 key schedule.

    ``keys`` is ``(N, 16)`` uint8; returns 11 round keys of ``(N, 16)``.
    """
    keys = np.asarray(keys, dtype=np.uint8)
    if keys.ndim != 2 or keys.shape[1] != 16:
        raise ValueError("expected (N, 16) uint8 keys")
    n = keys.shape[0]
    words = [keys[:, 4 * i : 4 * i + 4].copy() for i in range(4)]
    for i in range(4, 44):
        temp = words[i - 1]
        if i % 4 == 0:
            rotated = temp[:, [1, 2, 3, 0]]
            temp = _SBOX_NP[rotated]
            temp = temp.copy()
            temp[:, 0] ^= np.uint8(_RCON[i // 4 - 1])
        words.append(words[i - 4] ^ temp)
    round_keys = []
    for r in range(11):
        rk = np.empty((n, 16), dtype=np.uint8)
        for c in range(4):
            rk[:, 4 * c : 4 * c + 4] = words[4 * r + c]
        round_keys.append(rk)
    return round_keys


def _mix_columns_batch(state: np.ndarray) -> np.ndarray:
    """Vectorized MixColumns on ``(N, 16)`` column-major state."""
    out = np.empty_like(state)
    for c in range(4):
        col = state[:, 4 * c : 4 * c + 4]
        a0, a1, a2, a3 = col[:, 0], col[:, 1], col[:, 2], col[:, 3]
        # 2*x via table; 3*x = 2*x ^ x.
        x0, x1, x2, x3 = _XTIME[a0], _XTIME[a1], _XTIME[a2], _XTIME[a3]
        out[:, 4 * c + 0] = x0 ^ (x1 ^ a1) ^ a2 ^ a3
        out[:, 4 * c + 1] = a0 ^ x1 ^ (x2 ^ a2) ^ a3
        out[:, 4 * c + 2] = a0 ^ a1 ^ x2 ^ (x3 ^ a3)
        out[:, 4 * c + 3] = (x0 ^ a0) ^ a1 ^ a2 ^ x3
    return out


def aes128_encrypt_batch(keys: np.ndarray, plaintexts: np.ndarray) -> np.ndarray:
    """Encrypt N blocks under N independent keys.

    ``keys`` and ``plaintexts`` are ``(N, 16)`` uint8; returns
    ``(N, 16)`` uint8 ciphertexts. Row i is
    ``AES128(keys[i]).encrypt_block(plaintexts[i])``.
    """
    plaintexts = np.asarray(plaintexts, dtype=np.uint8)
    if plaintexts.ndim != 2 or plaintexts.shape[1] != 16:
        raise ValueError("expected (N, 16) uint8 plaintexts")
    round_keys = expand_keys_batch(keys)
    if plaintexts.shape[0] != round_keys[0].shape[0]:
        raise ValueError("keys and plaintexts must have the same batch size")

    state = plaintexts ^ round_keys[0]
    for r in range(1, 10):
        state = _SBOX_NP[state]
        state = state[:, _SHIFT_ROWS_PERM]
        state = _mix_columns_batch(state)
        state ^= round_keys[r]
    state = _SBOX_NP[state]
    state = state[:, _SHIFT_ROWS_PERM]
    state = state ^ round_keys[10]
    return state
