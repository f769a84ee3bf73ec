"""Typed tenancy failures.

An exhausted admission budget is not one of them: the dispatcher's
policy sheds it as :attr:`~repro.refusals.Refusal.TENANT_QUOTA`.
"""

from __future__ import annotations

__all__ = ["UnknownTenant"]


class UnknownTenant(Exception):
    """A strict registry refused an unregistered tenant id."""

    def __init__(self, tenant_id: str):
        super().__init__(f"unknown tenant {tenant_id!r}")
        self.tenant_id = tenant_id
