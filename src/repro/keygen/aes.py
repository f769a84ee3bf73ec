"""AES-128 from scratch (FIPS 197).

Used in two places:

* as the symmetric "key generation" primitive of the prior-work AES-based
  RBC engine (Table 7's AES-128 row): the candidate public response is the
  AES encryption of a fixed plaintext under the seed-derived key;
* as the cipher behind the CA's encrypted PUF-image database (CTR mode).

The S-box is derived programmatically from the GF(2^8) inverse plus the
affine map rather than pasted as constants, and validated against the
FIPS 197 appendix vectors in the tests.

There is one CTR path. Every counter block ``nonce ‖ i`` is independent
of the others, so :meth:`AES128.ctr_transform` runs all of them through
the T-tables at once, one NumPy lane per block (the lane-parallel layout
the batch hash kernels use, applied to the one place in the image store
where the blocks do not chain). The scalar :meth:`AES128.encrypt_block`
is the FIPS-197 reference the tests hold that kernel to, byte for byte.
"""

from __future__ import annotations

import numpy as np

__all__ = ["AES128", "aes128_encrypt_block", "aes128_decrypt_block", "aes128_ctr_keystream"]


def _gf_mul(a: int, b: int) -> int:
    """Multiplication in GF(2^8) modulo the AES polynomial x^8+x^4+x^3+x+1."""
    result = 0
    for _ in range(8):
        if b & 1:
            result ^= a
        high = a & 0x80
        a = (a << 1) & 0xFF
        if high:
            a ^= 0x1B
        b >>= 1
    return result


def _build_sbox() -> tuple[list[int], list[int]]:
    # GF(2^8) inverse via exponentiation tables over generator 3.
    exp = [0] * 255
    log = [0] * 256
    value = 1
    for i in range(255):
        exp[i] = value
        log[value] = i
        value = _gf_mul(value, 3)
    sbox = [0] * 256
    for x in range(256):
        inv = 0 if x == 0 else exp[(255 - log[x]) % 255]
        # Affine transformation.
        y = inv
        result = 0x63
        for shift in (0, 1, 2, 3, 4):
            result ^= ((y << shift) | (y >> (8 - shift))) & 0xFF
        sbox[x] = result
    inv_sbox = [0] * 256
    for x, s in enumerate(sbox):
        inv_sbox[s] = x
    return sbox, inv_sbox


_SBOX, _INV_SBOX = _build_sbox()
_RCON = (0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36)


def _build_enc_tables() -> tuple[list[int], list[int], list[int], list[int]]:
    """Fused SubBytes+MixColumns lookup tables (the classic T-tables).

    ``T_r[x]`` is the 32-bit column contribution of the row-``r`` input
    byte ``x`` after S-box substitution, so one encryption round reduces
    to sixteen table lookups and a handful of XORs. Derived from the same
    programmatic S-box as the reference round functions below.
    """
    t0: list[int] = []
    t1: list[int] = []
    t2: list[int] = []
    t3: list[int] = []
    for x in range(256):
        s = _SBOX[x]
        s2 = _gf_mul(s, 2)
        s3 = s2 ^ s
        t0.append((s2 << 24) | (s << 16) | (s << 8) | s3)
        t1.append((s3 << 24) | (s2 << 16) | (s << 8) | s)
        t2.append((s << 24) | (s3 << 16) | (s2 << 8) | s)
        t3.append((s << 24) | (s << 16) | (s3 << 8) | s2)
    return t0, t1, t2, t3


_T0, _T1, _T2, _T3 = _build_enc_tables()

# The same tables as gatherable arrays for the CTR kernel. The dtype is
# explicitly little-endian so that, on any host, byte ``j`` of a state
# word's uint8 view is ``(word >> 8*j) & 0xFF``.
_T_NP = tuple(np.array(t, dtype="<u4") for t in (_T0, _T1, _T2, _T3))
_SBOX_NP = np.array(_SBOX, dtype=np.uint8)
#: ShiftRows as a gather on the column axis: row ``r`` of output column
#: ``c`` comes from input column ``(c + r) % 4``.
_SHIFTED_COLUMNS = tuple(
    np.array([(c + r) % 4 for c in range(4)], dtype=np.intp) for r in range(4)
)


def _expand_key(key: bytes) -> list[list[int]]:
    """AES-128 key schedule: 11 round keys of 16 bytes each."""
    if len(key) != 16:
        raise ValueError("AES-128 key must be 16 bytes")
    words = [list(key[4 * i : 4 * i + 4]) for i in range(4)]
    for i in range(4, 44):
        temp = list(words[i - 1])
        if i % 4 == 0:
            temp = temp[1:] + temp[:1]
            temp = [_SBOX[b] for b in temp]
            temp[0] ^= _RCON[i // 4 - 1]
        words.append([a ^ b for a, b in zip(words[i - 4], temp, strict=True)])
    return [
        [b for word in words[4 * r : 4 * r + 4] for b in word] for r in range(11)
    ]


def _sub_bytes(state: list[int]) -> list[int]:
    return [_SBOX[b] for b in state]


def _inv_sub_bytes(state: list[int]) -> list[int]:
    return [_INV_SBOX[b] for b in state]


# State layout: state[r + 4*c] = byte at row r, column c (column-major,
# matching FIPS 197 where input byte i lands at row i%4, column i//4).


def _shift_rows(state: list[int]) -> list[int]:
    out = [0] * 16
    for r in range(4):
        for c in range(4):
            out[r + 4 * c] = state[r + 4 * ((c + r) % 4)]
    return out


def _inv_shift_rows(state: list[int]) -> list[int]:
    out = [0] * 16
    for r in range(4):
        for c in range(4):
            out[r + 4 * ((c + r) % 4)] = state[r + 4 * c]
    return out


def _mix_columns(state: list[int]) -> list[int]:
    out = [0] * 16
    for c in range(4):
        col = state[4 * c : 4 * c + 4]
        out[4 * c + 0] = _gf_mul(col[0], 2) ^ _gf_mul(col[1], 3) ^ col[2] ^ col[3]
        out[4 * c + 1] = col[0] ^ _gf_mul(col[1], 2) ^ _gf_mul(col[2], 3) ^ col[3]
        out[4 * c + 2] = col[0] ^ col[1] ^ _gf_mul(col[2], 2) ^ _gf_mul(col[3], 3)
        out[4 * c + 3] = _gf_mul(col[0], 3) ^ col[1] ^ col[2] ^ _gf_mul(col[3], 2)
    return out


def _inv_mix_columns(state: list[int]) -> list[int]:
    out = [0] * 16
    for c in range(4):
        col = state[4 * c : 4 * c + 4]
        out[4 * c + 0] = (_gf_mul(col[0], 14) ^ _gf_mul(col[1], 11)
                          ^ _gf_mul(col[2], 13) ^ _gf_mul(col[3], 9))
        out[4 * c + 1] = (_gf_mul(col[0], 9) ^ _gf_mul(col[1], 14)
                          ^ _gf_mul(col[2], 11) ^ _gf_mul(col[3], 13))
        out[4 * c + 2] = (_gf_mul(col[0], 13) ^ _gf_mul(col[1], 9)
                          ^ _gf_mul(col[2], 14) ^ _gf_mul(col[3], 11))
        out[4 * c + 3] = (_gf_mul(col[0], 11) ^ _gf_mul(col[1], 13)
                          ^ _gf_mul(col[2], 9) ^ _gf_mul(col[3], 14))
    return out


def _add_round_key(state: list[int], round_key: list[int]) -> list[int]:
    return [b ^ k for b, k in zip(state, round_key, strict=True)]


class AES128:
    """AES-128 with a precomputed key schedule for repeated block ops."""

    block_size = 16
    key_size = 16

    def __init__(self, key: bytes):
        self._round_keys = _expand_key(key)
        # Round keys as big-endian column words for the T-table fast path.
        self._round_key_words = [
            tuple(
                int.from_bytes(bytes(rk[4 * c : 4 * c + 4]), "big")
                for c in range(4)
            )
            for rk in self._round_keys
        ]

    def encrypt_block(self, plaintext: bytes) -> bytes:
        """Encrypt one 16-byte block (T-table fast path).

        Equivalent to SubBytes/ShiftRows/MixColumns/AddRoundKey over the
        column-major state; ``_mix_columns`` et al. below remain as the
        readable reference (and serve the decryption direction).
        """
        if len(plaintext) != 16:
            raise ValueError("AES block must be 16 bytes")
        rk = self._round_key_words
        k = rk[0]
        s0 = int.from_bytes(plaintext[0:4], "big") ^ k[0]
        s1 = int.from_bytes(plaintext[4:8], "big") ^ k[1]
        s2 = int.from_bytes(plaintext[8:12], "big") ^ k[2]
        s3 = int.from_bytes(plaintext[12:16], "big") ^ k[3]
        for k in rk[1:10]:
            t0 = (_T0[s0 >> 24] ^ _T1[(s1 >> 16) & 0xFF]
                  ^ _T2[(s2 >> 8) & 0xFF] ^ _T3[s3 & 0xFF] ^ k[0])
            t1 = (_T0[s1 >> 24] ^ _T1[(s2 >> 16) & 0xFF]
                  ^ _T2[(s3 >> 8) & 0xFF] ^ _T3[s0 & 0xFF] ^ k[1])
            t2 = (_T0[s2 >> 24] ^ _T1[(s3 >> 16) & 0xFF]
                  ^ _T2[(s0 >> 8) & 0xFF] ^ _T3[s1 & 0xFF] ^ k[2])
            t3 = (_T0[s3 >> 24] ^ _T1[(s0 >> 16) & 0xFF]
                  ^ _T2[(s1 >> 8) & 0xFF] ^ _T3[s2 & 0xFF] ^ k[3])
            s0, s1, s2, s3 = t0, t1, t2, t3
        k = rk[10]
        sb = _SBOX
        o0 = ((sb[s0 >> 24] << 24) | (sb[(s1 >> 16) & 0xFF] << 16)
              | (sb[(s2 >> 8) & 0xFF] << 8) | sb[s3 & 0xFF]) ^ k[0]
        o1 = ((sb[s1 >> 24] << 24) | (sb[(s2 >> 16) & 0xFF] << 16)
              | (sb[(s3 >> 8) & 0xFF] << 8) | sb[s0 & 0xFF]) ^ k[1]
        o2 = ((sb[s2 >> 24] << 24) | (sb[(s3 >> 16) & 0xFF] << 16)
              | (sb[(s0 >> 8) & 0xFF] << 8) | sb[s1 & 0xFF]) ^ k[2]
        o3 = ((sb[s3 >> 24] << 24) | (sb[(s0 >> 16) & 0xFF] << 16)
              | (sb[(s1 >> 8) & 0xFF] << 8) | sb[s2 & 0xFF]) ^ k[3]
        return b"".join(o.to_bytes(4, "big") for o in (o0, o1, o2, o3))

    def decrypt_block(self, ciphertext: bytes) -> bytes:
        """Decrypt one 16-byte block."""
        if len(ciphertext) != 16:
            raise ValueError("AES block must be 16 bytes")
        state = _add_round_key(list(ciphertext), self._round_keys[10])
        state = _inv_shift_rows(state)
        state = _inv_sub_bytes(state)
        for round_index in range(9, 0, -1):
            state = _add_round_key(state, self._round_keys[round_index])
            state = _inv_mix_columns(state)
            state = _inv_shift_rows(state)
            state = _inv_sub_bytes(state)
        state = _add_round_key(state, self._round_keys[0])
        return bytes(state)

    def _ctr_keystream(self, nonce: bytes, length: int) -> np.ndarray:
        """``length`` CTR keystream bytes: ``E(nonce ‖ 0) ‖ E(nonce ‖ 1) ‖ …``.

        All ``ceil(length / 16)`` counter blocks go through the cipher at
        once: the state is ``(4, blocks)`` column words (row 0 in the top
        byte, as in :meth:`encrypt_block`), one lane per block, and a
        round is one gather per T-table over the matching byte of every
        column — the same sixteen look-ups per block — with ShiftRows as
        a permutation of the column axis.
        """
        if len(nonce) != 8:
            raise ValueError("CTR nonce must be 8 bytes")
        blocks = -(-length // 16)
        round_keys = np.array(self._round_key_words, dtype="<u4")[:, :, None]
        counters = np.arange(blocks, dtype=np.uint64)
        state = np.empty((4, blocks), dtype="<u4")
        state[0] = int.from_bytes(nonce[:4], "big")
        state[1] = int.from_bytes(nonce[4:], "big")
        state[2] = counters >> np.uint64(32)
        state[3] = counters & np.uint64(0xFFFFFFFF)
        state ^= round_keys[0]
        for round_key in round_keys[1:10]:
            # cells[c, :, 3 - r] is the row-r byte of column c.
            cells = state.view(np.uint8).reshape(4, blocks, 4)
            state = _T_NP[0][cells[:, :, 3]]
            for r in (1, 2, 3):
                state ^= _T_NP[r][cells[:, :, 3 - r]][_SHIFTED_COLUMNS[r]]
            state ^= round_key
        cells = state.view(np.uint8).reshape(4, blocks, 4)
        # Output byte 4*c + r of each block: S-box, ShiftRows, last key.
        out = np.empty((blocks, 4, 4), dtype=np.uint8)
        for r in range(4):
            out[:, :, r] = _SBOX_NP[cells[:, :, 3 - r]][_SHIFTED_COLUMNS[r]].T
        out ^= np.array(self._round_keys[10], dtype=np.uint8).reshape(4, 4)
        return out.reshape(-1)[:length]

    def ctr_transform(
        self, data: bytes | bytearray | memoryview, nonce: bytes
    ) -> bytes:
        """CTR-mode encryption/decryption (its own inverse)."""
        buffer = np.frombuffer(data, dtype=np.uint8)
        keystream = self._ctr_keystream(nonce, buffer.size)
        keystream ^= buffer
        return keystream.tobytes()


def aes128_encrypt_block(key: bytes, plaintext: bytes) -> bytes:
    """One-shot AES-128 block encryption."""
    return AES128(key).encrypt_block(plaintext)


def aes128_decrypt_block(key: bytes, ciphertext: bytes) -> bytes:
    """One-shot AES-128 block decryption."""
    return AES128(key).decrypt_block(ciphertext)


def aes128_ctr_keystream(key: bytes, nonce: bytes, length: int) -> bytes:
    """CTR keystream bytes for the encrypted PUF-image database."""
    return AES128(key)._ctr_keystream(nonce, length).tobytes()
