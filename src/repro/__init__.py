"""repro — reproduction of *Evaluating Accelerators for a High-Throughput
Hash-Based Security Protocol* (Lee et al., ICPP-W 2023).

The package implements RBC-SALTED — the hash-search optimization of
Response-Based Cryptography — together with every substrate the paper's
evaluation depends on: from-scratch scalar and batched SHA-1/SHA-256/SHA-3,
four combination generators, a statistical PUF with TAPKI masking, AES /
ChaCha20 / SPECK / toy-LWE key generation, calibrated CPU/GPU/APU device
simulators, a real multiprocessing search runtime, and the client<->CA
network protocol.

Quickstart::

    import numpy as np
    from repro import quick_setup

    ca, client, mask = quick_setup(seed=7)
    from repro.core import RBCSaltedProtocol
    outcome = RBCSaltedProtocol(ca).authenticate(client, reference_mask=mask)
    assert outcome.authenticated

See ``examples/`` for full scenarios and ``benchmarks/`` for the per-table
reproduction harness.
"""

from __future__ import annotations

__version__ = "1.0.0"

from repro._bitutils import SEED_BITS, SEED_BYTES
from repro.core import (
    RBCSaltedProtocol,
    RBCSearchService,
    CertificateAuthority,
    RegistrationAuthority,
    DEFAULT_TIME_THRESHOLD,
)
from repro.engines import build_engine
from repro.runtime import BatchSearchExecutor

__all__ = [
    "__version__",
    "SEED_BITS",
    "SEED_BYTES",
    "RBCSaltedProtocol",
    "RBCSearchService",
    "CertificateAuthority",
    "RegistrationAuthority",
    "DEFAULT_TIME_THRESHOLD",
    "BatchSearchExecutor",
    "build_engine",
    "quick_setup",
]


def quick_setup(
    seed: int = 0,
    hash_name: str = "sha3-256",
    max_distance: int = 2,
    keygen_name: str = "aes-128",
    noise_target_distance: int | None = 2,
    num_cells: int = 2048,
):
    """Build a ready-to-run CA + enrolled client for experimentation.

    Returns ``(certificate_authority, client_device, ternary_mask)``.
    Small defaults (d <= 2) keep a pure-Python search interactive; raise
    ``max_distance`` if you have the patience (d=3 is ~2.8M hashes).
    """
    import numpy as np

    from repro.core.protocol import ClientDevice
    from repro.core.salting import HashChainSalt
    from repro.keygen.interface import get_keygen
    from repro.puf.image_db import EncryptedImageDatabase
    from repro.puf.model import SRAMPuf
    from repro.puf.ternary import enroll_with_masking

    puf = SRAMPuf(num_cells=num_cells, stable_error=0.001, seed=seed)
    mask = enroll_with_masking(
        puf, address=0, window=num_cells, reads=64, instability_threshold=0.02
    )
    authority = CertificateAuthority(
        search_service=RBCSearchService(
            build_engine("batch", hash_name=hash_name, batch_size=16384),
            max_distance=max_distance,
        ),
        salt=HashChainSalt(),
        keygen=get_keygen(keygen_name),
        registration_authority=RegistrationAuthority(),
        image_db=EncryptedImageDatabase(b"repro-master-k!!"),
        hash_name=hash_name,
    )
    authority.enroll("client-0", mask)
    client = ClientDevice(
        "client-0",
        puf,
        noise_target_distance=noise_target_distance,
        rng=np.random.default_rng(seed + 1),
    )
    return authority, client, mask
