"""Multi-tenant identity, quotas, and fair share for the serving stack.

One tenant model threads through every serving layer:

* :mod:`repro.tenancy.context` — :class:`TenantContext` (id, fair-share
  weight, :class:`TenantQuota`) plus the ``tenant::client_id`` key
  namespacing the image store keeps records under. The ``default``
  tenant maps to bare client ids, so pre-tenancy enrollments and legacy
  clients keep working byte-identically.
* :mod:`repro.tenancy.bucket` — the token bucket behind per-tenant
  lookup-rate budgets.
* :mod:`repro.tenancy.registry` — :class:`TenantRegistry`, the one
  shared object every layer consults: the wire front door resolves
  tenant ids, admission charges buckets, and lanes read weights.
* :mod:`repro.tenancy.ledger` — :class:`TenantLedger`, per-tenant
  serving counters (submitted/shed/quota hits/latency percentiles).

An aggressor tenant bursting past its quota at the front door, with and
without the quota, is a tier-1 scenario (``tests/test_storm.py``
``TestComposedFaults``).
"""

from repro.tenancy.bucket import TokenBucket
from repro.tenancy.context import (
    DEFAULT_TENANT,
    TENANT_SEPARATOR,
    TenantContext,
    TenantQuota,
    namespaced_key,
    validate_tenant_id,
)
from repro.tenancy.errors import UnknownTenant
from repro.tenancy.ledger import TenantLedger
from repro.tenancy.registry import TenantRegistry

__all__ = [
    "DEFAULT_TENANT",
    "TENANT_SEPARATOR",
    "TenantContext",
    "TenantQuota",
    "TokenBucket",
    "TenantLedger",
    "TenantRegistry",
    "UnknownTenant",
    "namespaced_key",
    "validate_tenant_id",
]
