"""Typed tenancy failures.

Quota violations are *policy* outcomes, not bugs: the caller exceeded a
budget an operator configured. An exhausted enrollment cap is the
``tenant_quota`` shed, carrying the tenant and the budget that tripped.
"""

from __future__ import annotations

from repro.refusals import Refusal, RequestShed

__all__ = ["UnknownTenant", "TenantQuotaExceeded"]


class UnknownTenant(Exception):
    """A strict registry refused an unregistered tenant id."""

    def __init__(self, tenant_id: str):
        super().__init__(f"unknown tenant {tenant_id!r}")
        self.tenant_id = tenant_id


class TenantQuotaExceeded(RequestShed):
    """A tenant hit one of its configured budgets; ``kind`` says which."""

    def __init__(self, tenant_id: str, kind: str, detail: str = ""):
        message = f"tenant {tenant_id!r} exceeded its {kind} quota"
        if detail:
            message += f": {detail}"
        super().__init__(Refusal.TENANT_QUOTA, message)
        self.tenant_id = tenant_id
        self.kind = kind
