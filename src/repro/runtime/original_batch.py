"""Vectorized original (algorithm-aware) RBC search.

The live, high-throughput version of the Table 7 baselines: per
candidate seed, run a *key-agile* batched cipher (AES-128, SPECK or
ChaCha20 — each lane has its own key) and compare the public responses.
This is what prior-work GPU engines did in CUDA; here the NumPy batch
kernels stand in, so the RBC-SALTED vs original comparison can be run
end-to-end with real code on this host at reduced Hamming distances.

PQC baselines (SABER/Dilithium) stay scalar — their per-candidate cost
is the point, and :class:`repro.core.original_rbc.OriginalRBCSearch`
covers them.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from dataclasses import dataclass, replace

import numpy as np

from repro._bitutils import seed_to_words
from repro.engines.result import SearchResult
from repro.keygen.batch_aes import aes128_encrypt_batch
from repro.keygen.batch_chacha20 import chacha20_block_batch
from repro.keygen.batch_speck import speck128_encrypt_batch
from repro.keygen.interface import _FIXED_PLAINTEXT
from repro.runtime.executor import BatchSearchExecutor

__all__ = ["BatchOriginalRBCSearch", "BATCH_KEYGEN_CHOICES"]

_FIXED_PT_NP = np.frombuffer(_FIXED_PLAINTEXT, dtype=np.uint8)


def _words_to_bytes_rows(words: np.ndarray) -> np.ndarray:
    """``(N, 4)`` uint64 seed words -> ``(N, 32)`` uint8 big-endian rows."""
    raw = np.ascontiguousarray(words, dtype=np.uint64).view(np.uint8)
    return raw.reshape(-1, 32)[:, ::-1]


def _aes_response_batch(seed_rows: np.ndarray) -> np.ndarray:
    keys = np.ascontiguousarray(seed_rows[:, :16])
    tweaked = seed_rows[:, 16:] ^ _FIXED_PT_NP
    return aes128_encrypt_batch(keys, tweaked)


def _speck_response_batch(seed_rows: np.ndarray) -> np.ndarray:
    keys = np.ascontiguousarray(seed_rows[:, :16])
    tweaked = np.ascontiguousarray(seed_rows[:, 16:] ^ _FIXED_PT_NP)
    return speck128_encrypt_batch(keys, tweaked)


def _chacha_response_batch(seed_rows: np.ndarray) -> np.ndarray:
    return chacha20_block_batch(np.ascontiguousarray(seed_rows))[:, :32]


@dataclass(frozen=True)
class _CipherResponse:
    """One key generation per candidate as the search body's one-way function."""

    name: str
    digest_size: int
    kernel: Callable[[np.ndarray], np.ndarray]

    def hash_seed(self, seed: bytes) -> bytes:
        return self.hash_seeds_batch(seed_to_words(seed)[None, :])[0].tobytes()

    def hash_seeds_batch(
        self, words: np.ndarray, fixed_padding: bool = True
    ) -> np.ndarray:
        """``(N, digest_size)`` uint8 responses, each lane under its own key."""
        return self.kernel(_words_to_bytes_rows(words))

    def digest_to_words(self, public_value: bytes) -> np.ndarray:
        if len(public_value) != self.digest_size:
            raise ValueError(f"{self.name} responses are {self.digest_size} bytes")
        return np.frombuffer(public_value, dtype=np.uint8)


_CIPHERS = {
    cipher.name: cipher
    for cipher in (
        _CipherResponse("aes-128", 16, _aes_response_batch),
        _CipherResponse("speck-128", 16, _speck_response_batch),
        _CipherResponse("chacha20", 32, _chacha_response_batch),
    )
}

BATCH_KEYGEN_CHOICES = tuple(_CIPHERS)


class BatchOriginalRBCSearch:
    """Key-agile batched original-RBC engine (AES / SPECK / ChaCha20).

    An adapter: the one Algorithm 1 body
    (:meth:`~repro.runtime.executor.BatchSearchExecutor.search`) run over
    :class:`_CipherResponse`, kept at ``algo``.
    """

    def __init__(self, keygen_name: str = "aes-128", batch_size: int = 8192):
        if keygen_name not in _CIPHERS:
            raise ValueError(
                f"no batch kernel for {keygen_name!r}; choices: {BATCH_KEYGEN_CHOICES}"
            )
        self.keygen_name = keygen_name
        self.algo = _CIPHERS[keygen_name]
        self._executor = BatchSearchExecutor(self.algo, batch_size=batch_size)
        self.batch_size = batch_size

    def describe(self) -> str:
        """Canonical spec string for this engine's configuration."""
        return f"original:{self.keygen_name},bs={self.batch_size}"

    def response_batch(self, seed_words: np.ndarray) -> np.ndarray:
        """Public responses for a batch of candidate seeds (words form)."""
        return self.algo.hash_seeds_batch(seed_words)

    def search(
        self,
        base_seed: bytes,
        target_response: bytes,
        max_distance: int,
        time_budget: float | None = None,
    ) -> SearchResult:
        """Search distances 0..max_distance by batched response comparison."""
        result = self._executor.search(
            base_seed, target_response, max_distance, time_budget=time_budget
        )
        return replace(result, engine=self.describe())

    def throughput_probe(self, num_seeds: int = 30000, rng_seed: int = 0) -> float:
        """Measured key-agile responses/second on this host."""
        rng = np.random.default_rng(rng_seed)
        words = rng.integers(0, 1 << 63, size=(num_seeds, 4), dtype=np.int64)
        words = words.astype(np.uint64)
        start = time.perf_counter()
        self.response_batch(words)
        return num_seeds / (time.perf_counter() - start)
