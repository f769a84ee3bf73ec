"""CA and RA bookkeeping around the RBC search.

The Certificate Authority owns the encrypted PUF-image database and the
search service; the Registration Authority disseminates the public keys
of authenticated clients. Client private keys are never generated or
stored anywhere in this flow — the defining property of RBC.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol, runtime_checkable

import numpy as np

from repro._bitutils import SEED_BITS
from repro.core.salting import SaltScheme
from repro.core.search import RBCSearchService
from repro.hashes.registry import HashAlgorithm, get_hash
from repro.keygen.interface import KeyGenerator
from repro.puf.ternary import TernaryMask
from repro.runtime.executor import SearchResult
from repro.tenancy.context import namespaced_key

__all__ = [
    "RegistrationAuthority",
    "CertificateAuthority",
    "Challenge",
    "EnrollmentStore",
]


@runtime_checkable
class EnrollmentStore(Protocol):
    """Anything the CA can keep enrolled PUF images in.

    Satisfied by the plain in-memory
    :class:`~repro.puf.image_db.EncryptedImageDatabase` and by its
    WAL-backed wrapper
    :class:`~repro.durability.store.DurableImageStore`.
    """

    def enroll(self, client_id: str, mask: TernaryMask) -> None: ...

    def lookup(self, client_id: str) -> TernaryMask: ...

    def __contains__(self, client_id: str) -> bool: ...

    def __len__(self) -> int: ...


@dataclass(frozen=True)
class Challenge:
    """Handshake payload: which PUF cells to read and how to digest them."""

    client_id: str
    address: int
    window: int
    usable: np.ndarray  # boolean cell mask (public)
    bit_count: int
    hash_name: str


class RegistrationAuthority:
    """Public-key registry updated after each successful authentication."""

    def __init__(self) -> None:
        self._keys: dict[str, bytes] = {}
        self._update_count: dict[str, int] = {}

    def update(self, client_id: str, public_key: bytes) -> None:
        """Register/replace the client's current public key."""
        if not public_key:
            raise ValueError("public key must be non-empty")
        self._keys[client_id] = public_key
        self._update_count[client_id] = self._update_count.get(client_id, 0) + 1

    def lookup(self, client_id: str) -> bytes:
        """The client's current public key."""
        return self._keys[client_id]

    def update_count(self, client_id: str) -> int:
        """How many one-time keys this client has cycled through."""
        return self._update_count.get(client_id, 0)

    def __contains__(self, client_id: str) -> bool:
        return client_id in self._keys


@dataclass
class CertificateAuthority:
    """The secure server: enrollment store, search service, key issuance."""

    search_service: RBCSearchService
    salt: SaltScheme
    keygen: KeyGenerator
    registration_authority: RegistrationAuthority
    image_db: EnrollmentStore
    hash_name: str = "sha3-256"
    seed_bits: int = SEED_BITS
    _last_result: SearchResult | None = field(default=None, repr=False)

    @property
    def hash_algorithm(self) -> HashAlgorithm:
        """The registered hash algorithm this CA searches with."""
        return get_hash(self.hash_name)

    def enroll(
        self,
        client_id: str,
        mask: TernaryMask,
        tenant_id: str | None = None,
    ) -> None:
        """Store a client's enrollment image (secure-facility phase).

        ``tenant_id`` namespaces the stored record: the default tenant
        (or ``None``) stores under the bare client id, exactly as before
        tenancy, so pre-tenancy enrollments stay reachable.
        """
        if mask.usable_count < self.seed_bits:
            raise ValueError(
                f"enrollment window provides {mask.usable_count} usable "
                f"cells; {self.seed_bits} required"
            )
        self.image_db.enroll(namespaced_key(tenant_id, client_id), mask)

    def issue_challenge(
        self, client_id: str, tenant_id: str | None = None
    ) -> Challenge:
        """Handshake step: tell the client which cells to read."""
        mask = self.image_db.lookup(namespaced_key(tenant_id, client_id))
        return Challenge(
            client_id=client_id,
            address=mask.address,
            window=mask.usable.shape[0],
            usable=mask.usable.copy(),
            bit_count=self.seed_bits,
            hash_name=self.hash_name,
        )

    def enrolled_seed(
        self, client_id: str, tenant_id: str | None = None
    ) -> bytes:
        """S_init — the seed from the enrolled (noise-free) PUF image."""
        mask = self.image_db.lookup(namespaced_key(tenant_id, client_id))
        bits = mask.reference_seed_bits(self.seed_bits)
        return np.packbits(bits).tobytes()

    def run_search(
        self,
        client_id: str,
        client_digest: bytes,
        deadline_seconds: float | None = None,
        tenant_id: str | None = None,
    ) -> SearchResult:
        """Figure 1 steps 1-6: the RBC search proper."""
        result = self.search_service.find_seed(
            self.enrolled_seed(client_id, tenant_id),
            client_digest,
            deadline_seconds=deadline_seconds,
        )
        self._last_result = result
        return result

    def issue_public_key(
        self,
        client_id: str,
        found_seed: bytes,
        tenant_id: str | None = None,
    ) -> bytes:
        """Figure 1 steps 7-9: salt, generate the key once, update the RA.

        RA entries are namespaced the same way as enrollment records, so
        two tenants' identically-named clients never share a key slot.
        """
        salted = self.salt(found_seed)
        public_key = self.keygen.public_key(salted)
        self.registration_authority.update(
            namespaced_key(tenant_id, client_id), public_key
        )
        return public_key
