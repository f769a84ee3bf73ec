"""Key-generation substrate.

The original (algorithm-aware) RBC protocol generates a *public key* for
every candidate seed, so the per-candidate cost is one key generation.
RBC-SALTED generates the public key exactly once, from the salted seed.
This package provides the cryptographic algorithms both variants draw on:

* :mod:`repro.keygen.aes` — AES-128 from scratch (FIPS 197), used by the
  original AES-based RBC engines and by the CA's encrypted PUF-image
  database.
* :mod:`repro.keygen.chacha20` — ChaCha20 (RFC 8439), a prior-work cipher.
* :mod:`repro.keygen.speck` — SPECK-128/128, a prior-work cipher.
* :mod:`repro.keygen.lwe` — a toy module-LWE key generator standing in
  for the SABER / CRYSTALS-Dilithium PQC schemes (documented substitution:
  same keygen-vs-hash cost regime, NOT a secure implementation).
* :mod:`repro.keygen.interface` — the uniform :class:`KeyGenerator`
  protocol the RBC engines consume.
"""

from repro.keygen.aes import AES128, aes128_ctr_keystream, aes128_encrypt_block
from repro.keygen.batch_aes import aes128_encrypt_batch
from repro.keygen.batch_chacha20 import chacha20_block_batch
from repro.keygen.batch_speck import speck128_encrypt_batch
from repro.keygen.chacha20 import chacha20_block, chacha20_encrypt
from repro.keygen.interface import KeyGenerator, available_keygens, get_keygen
from repro.keygen.lwe import ToyModuleLWE
from repro.keygen.speck import Speck128, speck128_encrypt_block

__all__ = [
    "KeyGenerator",
    "get_keygen",
    "available_keygens",
    "AES128",
    "aes128_encrypt_block",
    "aes128_ctr_keystream",
    "chacha20_block",
    "chacha20_encrypt",
    "speck128_encrypt_block",
    "Speck128",
    "ToyModuleLWE",
    "aes128_encrypt_batch",
    "speck128_encrypt_batch",
    "chacha20_block_batch",
]
