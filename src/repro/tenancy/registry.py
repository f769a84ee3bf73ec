"""The tenant registry: resolution, admission budgets, fair-share weights.

One registry instance is shared by every layer that makes a
tenant-shaped decision — the serving front door resolves wire tenant ids
through it, the scheduler's admission policy charges its token buckets,
the lanes read its weights, and the enrollment directory checks its
enrollment caps. Sharing one object is what keeps those decisions
consistent: there is exactly one bucket per tenant no matter how many
layers consult it.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Iterable

from repro.tenancy.bucket import TokenBucket
from repro.tenancy.context import (
    DEFAULT_TENANT,
    TenantContext,
    TenantQuota,
)
from repro.tenancy.errors import UnknownTenant

__all__ = ["TenantRegistry"]


class TenantRegistry:
    """Registered tenants plus the default every legacy client rides."""

    def __init__(
        self,
        tenants: Iterable[TenantContext] = (),
        strict: bool = False,
        clock: Callable[[], float] = time.monotonic,
    ):
        #: With ``strict=True`` an unregistered tenant id is refused
        #: (:class:`UnknownTenant`) instead of falling back to the
        #: default tenant — multi-tenant deployments that require
        #: explicit onboarding set this.
        self.strict = strict
        self._clock = clock
        self._lock = threading.Lock()
        self._contexts: dict[str, TenantContext] = {}
        self._buckets: dict[str, TokenBucket] = {}
        for context in tenants:
            self.register(context)
        if DEFAULT_TENANT not in self._contexts:
            self.register(TenantContext(DEFAULT_TENANT))

    # -- membership -----------------------------------------------------

    def register(self, context: TenantContext) -> None:
        """Add (or replace) one tenant; its bucket resets on replace."""
        with self._lock:
            self._contexts[context.tenant_id] = context
            self._buckets.pop(context.tenant_id, None)
            rate = context.quota.lookup_rate
            capacity = context.quota.bucket_capacity
            if rate is not None and capacity is not None:
                self._buckets[context.tenant_id] = TokenBucket(
                    rate, capacity, clock=self._clock
                )

    def resolve(self, tenant_id: str | None) -> TenantContext:
        """The context a request with this wire tenant id runs under.

        ``None`` / ``""`` — a legacy client that never heard of tenancy
        — resolves to the default tenant. An unknown id resolves to the
        default too unless the registry is strict.
        """
        if not tenant_id:
            tenant_id = DEFAULT_TENANT
        with self._lock:
            context = self._contexts.get(tenant_id)
            if context is not None:
                return context
            if self.strict:
                raise UnknownTenant(tenant_id)
            return self._contexts[DEFAULT_TENANT]

    def contexts(self) -> tuple[TenantContext, ...]:
        """Registered tenants, default first then alphabetical."""
        with self._lock:
            rest = sorted(t for t in self._contexts if t != DEFAULT_TENANT)
            return tuple(
                self._contexts[t] for t in [DEFAULT_TENANT, *rest]
            )

    def __contains__(self, tenant_id: str) -> bool:
        with self._lock:
            return tenant_id in self._contexts

    # -- decisions ------------------------------------------------------

    def try_admit(self, tenant_id: str | None) -> bool:
        """Charge one lookup against the tenant's rate budget.

        True when the tenant has no rate quota or its bucket still holds
        a token; False when the budget is exhausted — the caller sheds
        with ``tenant_quota``. Unknown tenants charge the bucket of
        whatever :meth:`resolve` maps them to.
        """
        context = self.resolve(tenant_id)
        with self._lock:
            bucket = self._buckets.get(context.tenant_id)
        if bucket is None:
            return True
        return bucket.try_acquire()

    def weight_of(self, tenant_id: str | None) -> float:
        """The tenant's fair-share weight (default tenant's if unknown)."""
        return self.resolve(tenant_id).weight

    def enrollment_cap(self, tenant_id: str | None) -> int | None:
        """Max directory records the tenant may install, or None."""
        return self.resolve(tenant_id).quota.max_enrollments

    # -- introspection --------------------------------------------------

    def snapshot(self) -> dict[str, dict[str, object]]:
        """Per-tenant config plus live bucket levels."""
        with self._lock:
            contexts = dict(self._contexts)
            buckets = dict(self._buckets)
        report: dict[str, dict[str, object]] = {}
        for tenant_id, context in sorted(contexts.items()):
            quota: TenantQuota = context.quota
            entry: dict[str, object] = {
                "weight": context.weight,
                "lookup_rate": quota.lookup_rate,
                "burst": quota.bucket_capacity,
                "max_enrollments": quota.max_enrollments,
            }
            bucket = buckets.get(tenant_id)
            if bucket is not None:
                entry["tokens_available"] = round(bucket.available, 3)
            report[tenant_id] = entry
        return report
