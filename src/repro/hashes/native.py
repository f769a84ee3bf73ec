"""The host's native digests (C ``hashlib``) in the registry's batch form.

The paper runs one search on whichever platform hashes fastest; on a CPU
host that is OpenSSL, not a NumPy re-implementation of the round
function. This module is what the serving path hashes with — it sits
behind :class:`~repro.hashes.registry.HashAlgorithm` and is the only
module under ``src/repro`` that imports ``hashlib``. The from-spec
kernels (:mod:`repro.hashes.batch_sha3` and siblings) remain the paper's
algorithm and the oracle these functions are tested against: same input
checks, same output shape, dtype and bytes.

A 32-byte ``hashlib`` call holds the GIL, so threads hashing here take
turns; each call builds its own hash object and no state is shared.
"""

from __future__ import annotations

import hashlib
from collections.abc import Callable
from typing import Any

import numpy as np

from repro.hashes.batch_sha3 import _checked_seed_words

__all__ = ["digest", "digest_batch", "sha3_256"]

#: Registry name -> (constructor, one digest as the words the from-spec
#: batch kernel returns: SHA-3 squeezes four little-endian lanes, the
#: Merkle–Damgård hashes emit big-endian state words). Built once: NumPy
#: parses a sub-array dtype string with ``ast``, which CPython 3.11 does
#: not allow on two threads at once.
_NATIVE: dict[str, tuple[Callable[[bytes], Any], np.dtype]] = {
    "sha1": (hashlib.sha1, np.dtype(">5u4")),
    "sha256": (hashlib.sha256, np.dtype(">8u4")),
    "sha3-256": (hashlib.sha3_256, np.dtype("<4u8")),
    "sha512": (hashlib.sha512, np.dtype(">8u8")),
}


def digest(name: str, data: bytes) -> bytes:
    """Digest of ``data`` under the registered hash ``name``."""
    return _NATIVE[name][0](data).digest()


def sha3_256(data: bytes) -> bytes:
    """SHA3-256 of ``data``; the same bytes as :func:`repro.hashes.sha3.sha3_256`."""
    return hashlib.sha3_256(data).digest()


def digest_batch(name: str, words: np.ndarray, suffix: bytes = b"") -> np.ndarray:
    """Digests of ``seed ‖ suffix`` for N seeds, as the from-spec digest words.

    ``words`` is the canonical ``(N, 4)`` uint64 batch form (word 0 holds
    bits 0..63); row ``i`` of the result equals
    ``digest_to_words(digest(name, seed_i + suffix))``, so with an empty
    suffix this is a drop-in for the algorithm's from-spec batch kernel.
    """
    new, digest_words = _NATIVE[name]
    words = _checked_seed_words(words)
    # Big-endian seed bytes: most significant word first, each word swapped.
    seeds = words[:, ::-1].astype(">u8").view("V32").ravel().tolist()
    if suffix:
        raw = b"".join([new(seed + suffix).digest() for seed in seeds])
    else:  # the search's loop: no per-row concatenation (≈ 4 % at 16 384 rows)
        raw = b"".join([new(seed).digest() for seed in seeds])
    # A sub-array dtype unpacks to ``(N, words per digest)``, also for N = 0.
    as_words = np.frombuffer(raw, dtype=digest_words)
    return as_words.astype(as_words.dtype.newbyteorder("="))
