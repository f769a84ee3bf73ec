"""ChaCha20 stream cipher (RFC 8439), from scratch.

One of the symmetric primitives the prior-work RBC engine of Wright et
al. (2021) evaluated alongside AES and SPECK. Here it backs the ChaCha20
row of the prior-work comparison and doubles as a fast PRG inside the
toy LWE key generator.
"""

from __future__ import annotations

import struct

__all__ = ["chacha20_block", "chacha20_encrypt", "chacha20_keystream"]

_MASK32 = 0xFFFFFFFF
_CONSTANTS = (0x61707865, 0x3320646E, 0x79622D32, 0x6B206574)  # "expand 32-byte k"


def _rotl32(x: int, s: int) -> int:
    return ((x << s) | (x >> (32 - s))) & _MASK32


def _quarter_round(state: list[int], a: int, b: int, c: int, d: int) -> None:
    state[a] = (state[a] + state[b]) & _MASK32
    state[d] = _rotl32(state[d] ^ state[a], 16)
    state[c] = (state[c] + state[d]) & _MASK32
    state[b] = _rotl32(state[b] ^ state[c], 12)
    state[a] = (state[a] + state[b]) & _MASK32
    state[d] = _rotl32(state[d] ^ state[a], 8)
    state[c] = (state[c] + state[d]) & _MASK32
    state[b] = _rotl32(state[b] ^ state[c], 7)


def chacha20_block(key: bytes, counter: int, nonce: bytes) -> bytes:
    """One 64-byte ChaCha20 keystream block (RFC 8439 §2.3)."""
    if len(key) != 32:
        raise ValueError("ChaCha20 key must be 32 bytes")
    if len(nonce) != 12:
        raise ValueError("ChaCha20 nonce must be 12 bytes")
    state = list(_CONSTANTS)
    state += list(struct.unpack("<8I", key))
    state.append(counter & _MASK32)
    state += list(struct.unpack("<3I", nonce))
    working = list(state)
    for _ in range(10):
        # Column rounds.
        _quarter_round(working, 0, 4, 8, 12)
        _quarter_round(working, 1, 5, 9, 13)
        _quarter_round(working, 2, 6, 10, 14)
        _quarter_round(working, 3, 7, 11, 15)
        # Diagonal rounds.
        _quarter_round(working, 0, 5, 10, 15)
        _quarter_round(working, 1, 6, 11, 12)
        _quarter_round(working, 2, 7, 8, 13)
        _quarter_round(working, 3, 4, 9, 14)
    out = [(w + s) & _MASK32 for w, s in zip(working, state, strict=True)]
    return struct.pack("<16I", *out)


def chacha20_keystream(key: bytes, nonce: bytes, length: int, counter: int = 1) -> bytes:
    """``length`` keystream bytes starting at block ``counter``."""
    out = bytearray()
    block_counter = counter
    while len(out) < length:
        out.extend(chacha20_block(key, block_counter, nonce))
        block_counter += 1
    return bytes(out[:length])


def chacha20_encrypt(key: bytes, nonce: bytes, data: bytes, counter: int = 1) -> bytes:
    """XOR ``data`` with the ChaCha20 keystream (its own inverse)."""
    stream = chacha20_keystream(key, nonce, len(data), counter)
    return bytes(a ^ b for a, b in zip(data, stream, strict=True))
