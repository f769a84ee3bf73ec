"""Multi-tenant identity, quotas, and fair share for the serving stack.

One tenant model threads through every serving layer:

* :mod:`repro.tenancy.context` — :class:`TenantContext` (id, fair-share
  weight, :class:`TenantQuota`) plus the ``tenant::client_id`` key
  namespacing the enrollment directory stores records under. The
  ``default`` tenant maps to bare client ids, so pre-tenancy
  enrollments and legacy clients keep working byte-identically.
* :mod:`repro.tenancy.bucket` — the token bucket behind per-tenant
  lookup-rate budgets.
* :mod:`repro.tenancy.registry` — :class:`TenantRegistry`, the one
  shared object every layer consults: the wire front door resolves
  tenant ids, admission charges buckets, lanes read weights, and the
  directory checks enrollment caps.
* :mod:`repro.tenancy.ledger` — :class:`TenantLedger`, per-tenant
  serving counters (submitted/shed/quota hits/latency percentiles).
* :mod:`repro.tenancy.workload` — the noisy-neighbor storm used by the
  tenancy benchmark and the smoke gate.
"""

from repro.tenancy.bucket import TokenBucket
from repro.tenancy.context import (
    DEFAULT_TENANT,
    TENANT_SEPARATOR,
    TenantContext,
    TenantQuota,
    namespaced_key,
    split_key,
    tenant_of_key,
    validate_tenant_id,
)
from repro.tenancy.errors import TenantQuotaExceeded, UnknownTenant
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
    "TenantQuotaExceeded",
    "UnknownTenant",
    "namespaced_key",
    "split_key",
    "tenant_of_key",
    "validate_tenant_id",
]
