"""The false-authentication tripwire every storm and server shares.

Every found seed is re-hashed and compared against the digest the client
actually submitted; a mismatch is the one failure no storm can explain
away. The serving layer (or the storm driving it) records each submitted
digest before ``submit``, so the check holds whichever fleet device ends
up answering; the serial :class:`~repro.net.server.CAServer` (the
Figure 1 reference) records it by calling
:meth:`VerifyingAuthority.run_search`. Every served request that found a
seed reaches ``issue_public_key``, where the check happens. The counter
rides the admin metrics frame so a deployment storm can assert it stayed
zero.
"""

from __future__ import annotations

import threading

from repro.core.authentication import CertificateAuthority
from repro.hashes.registry import get_hash
from repro.tenancy.context import DEFAULT_TENANT, namespaced_key

__all__ = ["VerifyingAuthority"]


class VerifyingAuthority:
    """Authority wrapper that counts false authentications.

    Thread-safe: the serving layer records each submitted digest before
    admission, and every key issuance re-hashes the found seed against
    it. The counter is exported over the admin metrics frame.
    """

    #: Outstanding digests retained per client; bounds memory if a
    #: client records digests that never reach issuance (sheds, drops).
    _MAX_OUTSTANDING = 16

    def __init__(self, authority: CertificateAuthority):
        self._authority = authority
        self._lock = threading.Lock()
        self._digests: dict[str, list[bytes]] = {}
        self.false_authentications = 0

    def __getattr__(self, name):
        return getattr(self._authority, name)

    def record_digest(
        self, client_id: str, digest: bytes, tenant_id: str | None = None
    ) -> None:
        """Remember an outstanding M1 for this client (keyed per tenant).

        A *list* of outstanding digests, not a single slot: a client's
        retry (or its next request racing the previous search) must not
        overwrite the digest an in-flight search will be verified
        against — that overwrite would misreport a correct search as a
        false authentication.
        """
        with self._lock:
            outstanding = self._digests.setdefault(
                namespaced_key(tenant_id, client_id), []
            )
            if digest not in outstanding:
                outstanding.append(digest)
            del outstanding[: -self._MAX_OUTSTANDING]

    def run_search(
        self,
        client_id: str,
        client_digest: bytes,
        deadline_seconds: float | None = None,
        tenant_id: str | None = None,
    ):
        """The authority's blocking search, its M1 recorded first."""
        self.record_digest(client_id, client_digest, tenant_id)
        return self._authority.run_search(
            client_id,
            client_digest,
            deadline_seconds=deadline_seconds,
            tenant_id=tenant_id,
        )

    def issue_public_key(
        self, client_id: str, found_seed: bytes, tenant_id: str | None = None
    ) -> bytes:
        key = namespaced_key(tenant_id, client_id)
        with self._lock:
            outstanding = list(self._digests.get(key, ()))
        if outstanding:
            algo = get_hash(self._authority.hash_name)
            digest = algo.hash_seed(found_seed)
            if digest in outstanding:
                with self._lock:
                    recorded = self._digests.get(key)
                    if recorded is not None and digest in recorded:
                        recorded.remove(digest)
            else:
                with self._lock:
                    self.false_authentications += 1
        if tenant_id is None or tenant_id == DEFAULT_TENANT:
            return self._authority.issue_public_key(client_id, found_seed)
        return self._authority.issue_public_key(
            client_id, found_seed, tenant_id=tenant_id
        )
