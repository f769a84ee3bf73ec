"""Hashing substrate: from-scratch scalar and batched SHA implementations.

RBC-SALTED replaces per-candidate public-key generation with a single hash
per candidate seed, so hash throughput *is* protocol throughput. This
package provides:

* Scalar reference implementations of SHA-1, SHA-256 and SHA-3 (Keccak),
  written from the FIPS specifications and validated against ``hashlib``
  in the test suite.
* NumPy-vectorized *batch* kernels that hash many independent 256-bit
  seeds at once — the reproduction's analogue of the paper's
  one-thread-per-hash GPU kernels (contrast with the multi-thread-per-hash
  GPU work the related-work section dismisses).
* The fixed-padding optimization of the paper's Section 3.2.2: RBC only
  ever hashes 32-byte seeds, so the padded block is a constant template.
* :mod:`repro.hashes.native`, the host's C digests in the same batch
  form. The registry's ``hash_seed`` / ``hash_seeds_batch`` — what every
  engine and the request path call — run on it (the paper's method: hash
  on the platform's fastest primitive); the from-spec code above stays
  reachable as ``HashAlgorithm.scalar`` / ``.batch``, the paper artifact
  and the oracle the native digests are tested against.
* :mod:`repro.hashes.compiled`, the fleet's first-match scan: SHA3-256
  and SHA-1 hash-and-compare loops in C (``fused.c``), built with the
  host's compiler on first use and loaded with ``ctypes``; without a
  compiler the fleet scans with the native digests.

The paper evaluates SHA-1 (insecure; included for the cross-platform
comparison) and SHA-3. SHA-256 is included as a natural extension point.
"""

from repro.hashes.batch_sha1 import sha1_batch_seeds, sha1_digest_to_words
from repro.hashes.batch_sha3 import (
    keccak_f1600_batch,
    sha3_256_batch_seeds,
    sha3_256_digest_to_words,
)
from repro.hashes.batch_sha256 import sha256_batch_seeds, sha256_digest_to_words
from repro.hashes.hmac import hmac_digest, hmac_verify
from repro.hashes.registry import HashAlgorithm, available_hashes, get_hash
from repro.hashes.sha1 import SHA1, sha1
from repro.hashes.sha3 import keccak_f1600, sha3_224, sha3_256, sha3_384, sha3_512
from repro.hashes.sha256 import SHA256, sha256
from repro.hashes.sha512 import SHA512, sha384, sha512

__all__ = [
    "sha1",
    "SHA1",
    "sha256",
    "SHA256",
    "sha512",
    "sha384",
    "SHA512",
    "hmac_digest",
    "hmac_verify",
    "sha3_256",
    "sha3_224",
    "sha3_384",
    "sha3_512",
    "keccak_f1600",
    "sha1_batch_seeds",
    "sha1_digest_to_words",
    "sha256_batch_seeds",
    "sha256_digest_to_words",
    "sha3_256_batch_seeds",
    "sha3_256_digest_to_words",
    "keccak_f1600_batch",
    "HashAlgorithm",
    "get_hash",
    "available_hashes",
]
