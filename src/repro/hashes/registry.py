"""Hash algorithm registry.

Binds together, per algorithm: the from-spec scalar reference function
and batch kernel (the paper's algorithm, and the oracle), the
digest-to-words converter for vectorized comparison, and the APU state
footprint (the paper's resource metric — a SHA-1 PE occupies 2
bit-processors of 16 bits each, a SHA-3 PE occupies 5; Section 3.3).

``hash_seed`` / ``hash_seeds_batch`` / ``hash_seeds_suffixed`` are the
seam every engine and request-path caller hashes through. They run on
the host's native digests (:mod:`repro.hashes.native`), which produce the
same bytes as the from-spec code and win on this platform at every
width but one (EXPERIMENTS.md, E-NATIVE): wide SHA-1 batches, which stay
on the NumPy kernel from ``from_spec_min_rows`` rows up.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from repro.hashes import native
from repro.hashes.batch_sha1 import sha1_batch_seeds, sha1_digest_to_words
from repro.hashes.batch_sha3 import sha3_256_batch_seeds, sha3_256_digest_to_words
from repro.hashes.batch_sha256 import sha256_batch_seeds, sha256_digest_to_words
from repro.hashes.batch_sha512 import sha512_batch_seeds, sha512_digest_to_words
from repro.hashes.sha1 import sha1
from repro.hashes.sha3 import sha3_256
from repro.hashes.sha256 import sha256
from repro.hashes.sha512 import sha512

__all__ = ["HashAlgorithm", "get_hash", "available_hashes"]


@dataclass(frozen=True)
class HashAlgorithm:
    """Everything the search engine needs to know about one hash."""

    name: str
    digest_size: int
    #: APU bit-processors consumed per processing element (paper §3.3).
    apu_bps_per_pe: int
    #: Relative compute cost per hash (SHA-1 = 1.0); used by device models.
    relative_cost: float
    #: From-spec scalar digest and ``(N, 4)`` uint64 batch kernel.
    scalar: Callable[[bytes], bytes]
    batch: Callable[..., np.ndarray]
    digest_to_words: Callable[[bytes], np.ndarray]
    #: Batches of at least this many rows hash on ``batch`` instead of the
    #: native digest; ``None`` where native wins at every measured width.
    from_spec_min_rows: int | None = None

    def hash_seed(self, seed: bytes) -> bytes:
        """Digest of one seed (32 bytes, or ``seed ‖ nonce`` when bound)."""
        return native.digest(self.name, seed)

    def hash_seeds_batch(
        self, words: np.ndarray, fixed_padding: bool = True
    ) -> np.ndarray:
        """Batched digests of ``(N, 4)`` uint64 seed words.

        ``fixed_padding`` (§3.2.2) selects the from-spec kernel's padding
        path; a native digest pads inside the library and ignores it.
        """
        if (
            self.from_spec_min_rows is not None
            and len(words) >= self.from_spec_min_rows
        ):
            return self.batch(words, fixed_padding=fixed_padding)
        return native.digest_batch(self.name, words)

    def hash_seeds_suffixed(self, words: np.ndarray, suffix: bytes) -> np.ndarray:
        """Batched digests of ``seed ‖ suffix``, in the ``hash_seeds_batch`` form."""
        return native.digest_batch(self.name, words, suffix)


_REGISTRY: dict[str, HashAlgorithm] = {}


def _register(algo: HashAlgorithm) -> HashAlgorithm:
    _REGISTRY[algo.name] = algo
    return algo


#: Relative costs follow the paper's GPU measurement: SHA-3 d=5 exhaustive
#: in 4.67 s vs SHA-1 in 1.56 s, i.e. SHA-3 approximately 3x SHA-1 per hash.
SHA1_ALGO = _register(
    HashAlgorithm(
        name="sha1",
        digest_size=20,
        apu_bps_per_pe=2,
        relative_cost=1.0,
        scalar=sha1,
        batch=sha1_batch_seeds,
        digest_to_words=sha1_digest_to_words,
        # Measured crossover ≈ 3 500 rows (EXPERIMENTS.md, E-NATIVE).
        from_spec_min_rows=4096,
    )
)

SHA256_ALGO = _register(
    HashAlgorithm(
        name="sha256",
        digest_size=32,
        apu_bps_per_pe=3,
        relative_cost=1.6,
        scalar=sha256,
        batch=sha256_batch_seeds,
        digest_to_words=sha256_digest_to_words,
    )
)

SHA3_ALGO = _register(
    HashAlgorithm(
        name="sha3-256",
        digest_size=32,
        apu_bps_per_pe=5,
        relative_cost=4.67 / 1.56,
        scalar=sha3_256,
        batch=sha3_256_batch_seeds,
        digest_to_words=sha3_256_digest_to_words,
    )
)

SHA512_ALGO = _register(
    HashAlgorithm(
        name="sha512",
        digest_size=64,
        # 64-bit SHA-2 state: a/..h (512 bits) + 16-word schedule window;
        # slightly above SHA-3's 80-bit metric in the paper's accounting.
        apu_bps_per_pe=6,
        relative_cost=2.2,
        scalar=sha512,
        batch=sha512_batch_seeds,
        digest_to_words=sha512_digest_to_words,
    )
)

_ALIASES = {
    "sha1": "sha1",
    "sha-1": "sha1",
    "sha256": "sha256",
    "sha-256": "sha256",
    "sha2": "sha256",
    "sha3": "sha3-256",
    "sha-3": "sha3-256",
    "sha3-256": "sha3-256",
    "sha3_256": "sha3-256",
    "sha512": "sha512",
    "sha-512": "sha512",
}


def get_hash(name: str) -> HashAlgorithm:
    """Look up a registered hash algorithm by name (aliases accepted)."""
    key = _ALIASES.get(name.lower())
    if key is None:
        raise KeyError(
            f"unknown hash {name!r}; available: {sorted(_REGISTRY)}"
        )
    return _REGISTRY[key]


def available_hashes() -> list[str]:
    """Names of all registered hash algorithms."""
    return sorted(_REGISTRY)
