"""Tenant identity: the first-class field the serving stack threads.

A *tenant* is one independent request stream — a product, a customer, a
device fleet — sharing the CA with every other tenant. Until this module
existed the stack treated all clients as one anonymous pool; everything
tenant-shaped starts from the two values defined here:

* :class:`TenantContext` — who a request belongs to (tenant id), how much
  of the device it deserves (weight), and what it is allowed to consume
  (:class:`TenantQuota`).
* the **namespaced key** — where a tenant's records live. Client ids are
  namespaced per tenant in the one image store by prefixing them
  (``gold::device-7``); the reserved :data:`DEFAULT_TENANT` maps to
  the *bare* client id so every record enrolled before tenancy existed,
  and every legacy client that never sends a tenant, keeps resolving to
  exactly the same key as before.

Nothing in this module imports from the rest of :mod:`repro` — tenant
identity sits at the bottom of the dependency graph so the net, sched,
and serving layers can all import it freely.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

__all__ = [
    "DEFAULT_TENANT",
    "TENANT_SEPARATOR",
    "TenantQuota",
    "TenantContext",
    "namespaced_key",
]

#: The tenant legacy (untenanted) traffic rides: no prefix, no quotas
#: unless an operator registers some.
DEFAULT_TENANT = "default"

#: Separator between the tenant prefix and the client id in a namespaced
#: store key. Forbidden inside tenant ids, so splitting is exact.
TENANT_SEPARATOR = "::"

#: Tenant ids are operator-chosen labels that travel on the wire and
#: inside store keys; keep them to a safe, unambiguous charset.
_TENANT_ID_RE = re.compile(r"^[a-z0-9][a-z0-9._-]{0,63}$")


def validate_tenant_id(tenant_id: str) -> str:
    """Check a tenant id's charset/length; returns it unchanged."""
    if not _TENANT_ID_RE.match(tenant_id):
        raise ValueError(
            f"invalid tenant id {tenant_id!r}: must match "
            "[a-z0-9][a-z0-9._-]{0,63}"
        )
    return tenant_id


@dataclass(frozen=True)
class TenantQuota:
    """What one tenant may consume; ``None`` fields are unlimited.

    ``lookup_rate`` is the tenant's sustained admission budget in
    authentication lookups per second, enforced as a token bucket at
    admission (``burst`` tokens of headroom, default one second's worth).
    """

    lookup_rate: float | None = None
    burst: float | None = None

    def __post_init__(self) -> None:
        if self.lookup_rate is not None and self.lookup_rate <= 0:
            raise ValueError("lookup_rate must be positive (or None)")
        if self.burst is not None and self.burst < 1:
            raise ValueError("burst must be at least 1 (or None)")

    @property
    def bucket_capacity(self) -> float | None:
        """Token-bucket capacity: explicit burst, else ~1s of rate."""
        if self.lookup_rate is None:
            return None
        if self.burst is not None:
            return self.burst
        return max(1.0, self.lookup_rate)


@dataclass(frozen=True)
class TenantContext:
    """One tenant's identity, device-share weight, and quota config."""

    tenant_id: str
    #: Relative fair-share weight in the scheduler's lanes: with tenants
    #: A (weight 3) and B (weight 1) both backlogged, A is entitled to
    #: ~3/4 of the device batches before the policy deprioritizes it.
    weight: float = 1.0
    quota: TenantQuota = field(default_factory=TenantQuota)

    def __post_init__(self) -> None:
        validate_tenant_id(self.tenant_id)
        if self.weight <= 0:
            raise ValueError("weight must be positive")

    @property
    def is_default(self) -> bool:
        return self.tenant_id == DEFAULT_TENANT


def namespaced_key(tenant_id: str | None, client_id: str) -> str:
    """The store key a tenant's client record lives under.

    The default tenant (``None`` or ``""`` included) maps to the bare
    client id — byte-for-byte what the pre-tenancy stack used — so
    legacy enrollments and untenanted clients keep resolving unchanged.
    Any other tenant gets an exact, splittable prefix in the same store.
    """
    if TENANT_SEPARATOR in client_id:
        raise ValueError(
            f"client id {client_id!r} may not contain {TENANT_SEPARATOR!r}"
        )
    if not tenant_id or tenant_id == DEFAULT_TENANT:
        return client_id
    validate_tenant_id(tenant_id)
    return f"{tenant_id}{TENANT_SEPARATOR}{client_id}"
