"""Toy module-LWE key generation — the PQC cost stand-in.

DOCUMENTED SUBSTITUTION (DESIGN.md §6): the paper's prior-work rows use
LightSABER and CRYSTALS-Dilithium3. Reimplementing either faithfully is
out of scope and unnecessary for the reproduction: what Table 7 measures
is the *cost regime* of lattice keygen (matrix expansion from a seed,
polynomial arithmetic over a module) versus one hash. This class performs
exactly that work — expand seed to a k×k matrix of degree-n polynomials,
sample a small secret, compute ``b = A·s + e`` with NTT-free schoolbook
convolution done via NumPy — with SABER/Dilithium-like dimensions, so its
keygen/hash cost ratio lands in the same regime.

It is NOT a secure PQC implementation (no CBD sampling rigor, no NTT, no
rejection sampling) and must never be used as one.
"""

from __future__ import annotations

import numpy as np

from repro.hashes.native import sha3_256
from repro.keygen.chacha20 import chacha20_keystream

__all__ = ["ToyModuleLWE", "LWE_PRESETS"]

#: (module rank k, polynomial degree n, modulus q, noise bound eta)
LWE_PRESETS = {
    # LightSABER-like: rank 2, n=256, 13-bit modulus.
    "light": (2, 256, 8192, 5),
    # SABER-like: rank 3.
    "saber": (3, 256, 8192, 4),
    # Dilithium3-like: rank (6, 5) approximated with square rank 6 —
    # deliberately the most expensive preset, as Dilithium3 is in Table 7.
    "dilithium3": (6, 256, 8380417, 2),
}


class ToyModuleLWE:
    """Deterministic module-LWE-shaped key generation from a 32-byte seed."""

    def __init__(self, preset: str = "light"):
        if preset not in LWE_PRESETS:
            raise KeyError(f"unknown LWE preset {preset!r}; options: {sorted(LWE_PRESETS)}")
        self.preset = preset
        self.rank, self.degree, self.modulus, self.eta = LWE_PRESETS[preset]

    def _prg_uint32(self, seed: bytes, label: bytes, count: int) -> np.ndarray:
        """Deterministic uniform uint32 stream from (seed, label)."""
        key = sha3_256(seed + label)
        raw = chacha20_keystream(key, b"\x00" * 12, count * 4)
        return np.frombuffer(raw, dtype="<u4").astype(np.int64)

    def matrix_seed(self, seed: bytes) -> bytes:
        """ρ — the public seed the matrix A expands from (Kyber-style).

        Publishing ρ (inside the serialized public key) lets third
        parties re-expand A and encrypt to the key holder without ever
        seeing the PUF seed."""
        return sha3_256(seed + b"matrix-A-rho")

    def _expand_matrix(self, seed: bytes) -> np.ndarray:
        """Public matrix A for ``seed``: (k, k, n) uniform mod q."""
        return self.expand_matrix_from_rho(self.matrix_seed(seed))

    def expand_matrix_from_rho(self, rho: bytes) -> np.ndarray:
        """Expand A from the public matrix seed ρ."""
        k, n = self.rank, self.degree
        flat = self._prg_uint32(rho, b"matrix-A", k * k * n) % self.modulus
        return flat.reshape(k, k, n)

    def _sample_small(self, seed: bytes, label: bytes) -> np.ndarray:
        """Small vector (k, n): centered binomial-ish in [-eta, eta]."""
        k, n = self.rank, self.degree
        raw = self._prg_uint32(seed, label, k * n)
        return (raw % (2 * self.eta + 1)).reshape(k, n) - self.eta

    def _polymul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Negacyclic convolution in Z_q[x]/(x^n + 1) via full convolve."""
        n = self.degree
        full = np.convolve(a, b)
        folded = full[:n].copy()
        folded[: full.shape[0] - n] -= full[n:]
        return folded % self.modulus

    def keypair(self, seed: bytes) -> tuple[np.ndarray, np.ndarray]:
        """Derive ``(public b, secret s)`` deterministically from ``seed``."""
        if len(seed) != 32:
            raise ValueError("seed must be 32 bytes")
        a_matrix = self._expand_matrix(seed)
        secret = self._sample_small(seed, b"secret-s")
        error = self._sample_small(seed, b"error-e")
        k = self.rank
        public = np.zeros((k, self.degree), dtype=np.int64)
        for i in range(k):
            acc = np.zeros(self.degree, dtype=np.int64)
            for j in range(k):
                acc = (acc + self._polymul(a_matrix[i, j], secret[j])) % self.modulus
            public[i] = (acc + error[i]) % self.modulus
        return public, secret

    def public_key(self, seed: bytes) -> bytes:
        """Serialized public key ``b`` for the RBC response comparison."""
        public, _secret = self.keypair(seed)
        return public.astype("<u4").tobytes()

    # -- Regev-style encryption, so issued keys are actually usable -----

    def export_public(self, seed: bytes) -> bytes:
        """Serialized third-party-usable public key: ρ ‖ b."""
        public, _secret = self.keypair(seed)
        return self.matrix_seed(seed) + public.astype("<u4").tobytes()

    def import_public(self, raw: bytes) -> tuple[bytes, np.ndarray]:
        """Parse :meth:`export_public` output into (ρ, b)."""
        expected = 32 + self.rank * self.degree * 4
        if len(raw) != expected:
            raise ValueError(
                f"public key must be {expected} bytes for preset {self.preset!r}"
            )
        rho = raw[:32]
        b = np.frombuffer(raw[32:], dtype="<u4").astype(np.int64)
        return rho, b.reshape(self.rank, self.degree)

    def encrypt_to_public(
        self,
        public_key: bytes,
        message_bits: np.ndarray,
        enc_randomness: bytes,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Third-party encryption: only the exported public key needed."""
        rho, public = self.import_public(public_key)
        a_matrix = self.expand_matrix_from_rho(rho)
        return self._encrypt_core(a_matrix, public, message_bits, enc_randomness)

    def encrypt(
        self, seed: bytes, message_bits: np.ndarray, enc_randomness: bytes
    ) -> tuple[np.ndarray, np.ndarray]:
        """Encrypt ``degree`` message bits to the public key of ``seed``.

        Deterministic given ``enc_randomness`` (32 bytes). Returns the
        ciphertext ``(u, v)`` with ``u`` of shape ``(k, n)`` and ``v`` of
        shape ``(n,)`` — classic module-Regev:
        ``u = Aᵀ r + e₁``, ``v = b·r + e₂ + ⌊q/2⌋·m``.
        """
        a_matrix = self._expand_matrix(seed)
        public, _secret = self.keypair(seed)
        return self._encrypt_core(a_matrix, public, message_bits, enc_randomness)

    def _encrypt_core(
        self,
        a_matrix: np.ndarray,
        public: np.ndarray,
        message_bits: np.ndarray,
        enc_randomness: bytes,
    ) -> tuple[np.ndarray, np.ndarray]:
        message_bits = np.asarray(message_bits)
        if message_bits.shape != (self.degree,):
            raise ValueError(f"message must be {self.degree} bits")
        if len(enc_randomness) != 32:
            raise ValueError("encryption randomness must be 32 bytes")
        r = self._sample_small(enc_randomness, b"enc-r")
        e1 = self._sample_small(enc_randomness, b"enc-e1")
        e2 = self._sample_small(enc_randomness, b"enc-e2")[0]
        k = self.rank
        u = np.zeros((k, self.degree), dtype=np.int64)
        for j in range(k):
            acc = np.zeros(self.degree, dtype=np.int64)
            for i in range(k):
                # A transpose: entry (j, i) of Aᵀ is A[i, j].
                acc = (acc + self._polymul(a_matrix[i, j], r[i])) % self.modulus
            u[j] = (acc + e1[j]) % self.modulus
        v = np.zeros(self.degree, dtype=np.int64)
        for i in range(k):
            v = (v + self._polymul(public[i], r[i])) % self.modulus
        encoded = (message_bits.astype(np.int64) * (self.modulus // 2)) % self.modulus
        v = (v + e2 + encoded) % self.modulus
        return u, v

    def decrypt(self, seed: bytes, ciphertext: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
        """Recover the message bits with the secret derived from ``seed``."""
        u, v = ciphertext
        _public, secret = self.keypair(seed)
        acc = np.zeros(self.degree, dtype=np.int64)
        for i in range(self.rank):
            acc = (acc + self._polymul(u[i], secret[i])) % self.modulus
        noisy = (v - acc) % self.modulus
        # Bits decode to whichever of {0, q/2} is closer (mod q).
        quarter = self.modulus // 4
        return ((noisy > quarter) & (noisy < self.modulus - quarter)).astype(np.uint8)
