"""SHA-3 (Keccak) from scratch (FIPS 202).

The paper's secure hash of choice: standardized by NIST, one-way, and —
unlike the AES used by the original RBC engine — asymmetric-friendly (the
digest reveals nothing useful about the seed beyond equality).

This module implements the full Keccak-f[1600] permutation and the four
SHA-3 fixed-length variants. The sponge is written for arbitrary-length
input; the fixed-input fast path the paper describes (Section 3.2.2) lives
in the batch kernel (:mod:`repro.hashes.batch_sha3`) where it matters.
"""

from __future__ import annotations

__all__ = [
    "keccak_f1600",
    "keccak_sponge",
    "sha3_224",
    "sha3_256",
    "sha3_384",
    "sha3_512",
    "ROUND_CONSTANTS",
    "ROTATION_OFFSETS",
]

_MASK64 = (1 << 64) - 1

# Iota step round constants for the 24 rounds of Keccak-f[1600].
ROUND_CONSTANTS = (
    0x0000000000000001, 0x0000000000008082, 0x800000000000808A,
    0x8000000080008000, 0x000000000000808B, 0x0000000080000001,
    0x8000000080008081, 0x8000000000008009, 0x000000000000008A,
    0x0000000000000088, 0x0000000080008009, 0x000000008000000A,
    0x000000008000808B, 0x800000000000008B, 0x8000000000008089,
    0x8000000000008003, 0x8000000000008002, 0x8000000000000080,
    0x000000000000800A, 0x800000008000000A, 0x8000000080008081,
    0x8000000000008080, 0x0000000080000001, 0x8000000080008008,
)

# Rho step rotation offsets, indexed [x][y] for lane A[x, y].
ROTATION_OFFSETS = (
    (0, 36, 3, 41, 18),
    (1, 44, 10, 45, 2),
    (62, 6, 43, 15, 61),
    (28, 55, 25, 21, 56),
    (27, 20, 39, 8, 14),
)


def _rotl64(x: int, s: int) -> int:
    s %= 64
    if s == 0:
        return x
    return ((x << s) | (x >> (64 - s))) & _MASK64


def keccak_f1600(lanes: list[int]) -> list[int]:
    """Apply Keccak-f[1600] to 25 lanes (index = x + 5*y), returning new lanes."""
    if len(lanes) != 25:
        raise ValueError("Keccak-f[1600] state is 25 lanes")
    a = list(lanes)
    for rc in ROUND_CONSTANTS:
        # Theta
        c = [a[x] ^ a[x + 5] ^ a[x + 10] ^ a[x + 15] ^ a[x + 20] for x in range(5)]
        d = [c[(x - 1) % 5] ^ _rotl64(c[(x + 1) % 5], 1) for x in range(5)]
        for x in range(5):
            for y in range(5):
                a[x + 5 * y] ^= d[x]
        # Rho and Pi
        b = [0] * 25
        for x in range(5):
            for y in range(5):
                b[y + 5 * ((2 * x + 3 * y) % 5)] = _rotl64(
                    a[x + 5 * y], ROTATION_OFFSETS[x][y]
                )
        # Chi
        for x in range(5):
            for y in range(5):
                a[x + 5 * y] = b[x + 5 * y] ^ (
                    (~b[(x + 1) % 5 + 5 * y] & _MASK64) & b[(x + 2) % 5 + 5 * y]
                )
        # Iota
        a[0] ^= rc
    return a


def keccak_sponge(
    data: bytes, rate_bytes: int, digest_size: int, domain: int = 0x06
) -> bytes:
    """Generic Keccak sponge: absorb ``data``, squeeze ``digest_size`` bytes.

    ``domain`` is the domain-separation suffix prepended to the 10*1 pad
    (0x06 for SHA-3, 0x1F for SHAKE).
    """
    if not 0 < rate_bytes < 200:
        raise ValueError("rate must be in (0, 200) bytes")
    lanes = [0] * 25
    # Absorb full blocks.
    offset = 0
    while len(data) - offset >= rate_bytes:
        block = data[offset : offset + rate_bytes]
        for i in range(rate_bytes // 8):
            lanes[i] ^= int.from_bytes(block[8 * i : 8 * i + 8], "little")
        lanes = keccak_f1600(lanes)
        offset += rate_bytes
    # Pad the final (possibly empty) partial block: domain bits then 10*1.
    last = bytearray(data[offset:])
    last.append(domain)
    last.extend(b"\x00" * (rate_bytes - len(last)))
    last[rate_bytes - 1] |= 0x80
    for i in range(rate_bytes // 8):
        lanes[i] ^= int.from_bytes(last[8 * i : 8 * i + 8], "little")
    lanes = keccak_f1600(lanes)
    # Squeeze.
    out = bytearray()
    while len(out) < digest_size:
        for i in range(rate_bytes // 8):
            out.extend(lanes[i].to_bytes(8, "little"))
            if len(out) >= digest_size:
                break
        if len(out) < digest_size:
            lanes = keccak_f1600(lanes)
    return bytes(out[:digest_size])


def sha3_224(data: bytes) -> bytes:
    """SHA3-224 digest (rate 144, capacity 448)."""
    return keccak_sponge(data, rate_bytes=144, digest_size=28)


def sha3_256(data: bytes) -> bytes:
    """SHA3-256 digest (rate 136, capacity 512) — the paper's SHA-3."""
    return keccak_sponge(data, rate_bytes=136, digest_size=32)


def sha3_384(data: bytes) -> bytes:
    """SHA3-384 digest (rate 104, capacity 768)."""
    return keccak_sponge(data, rate_bytes=104, digest_size=48)


def sha3_512(data: bytes) -> bytes:
    """SHA3-512 digest (rate 72, capacity 1024)."""
    return keccak_sponge(data, rate_bytes=72, digest_size=64)
