"""Per-tenant serving counters: the multi-tenant half of ServerMetrics.

One ledger rides inside :class:`~repro.net.concurrent.ServerMetrics`;
every admission, completion, and shed is attributed to the tenant it
belonged to. Latencies keep a bounded reservoir of the most recent
observations per tenant, enough for the p50/p99 the per-tenant
metrics frame reports.
"""

from __future__ import annotations

import threading
from collections import deque

from repro.analysis.metrics import percentile

__all__ = ["TenantLedger"]

#: Most recent latency observations kept per tenant for percentiles.
_LATENCY_WINDOW = 1024


class _TenantCounters:
    __slots__ = (
        "submitted",
        "completed",
        "authenticated",
        "failed",
        "shed",
        "quota_hits",
        "search_seconds",
        "latencies",
    )

    def __init__(self) -> None:
        self.submitted = 0
        self.completed = 0
        self.authenticated = 0
        self.failed = 0
        self.shed = 0
        #: Sheds caused specifically by this tenant's own quota.
        self.quota_hits = 0
        self.search_seconds = 0.0
        self.latencies: deque[float] = deque(maxlen=_LATENCY_WINDOW)


class TenantLedger:
    """Thread-safe per-tenant counters with one atomic write path."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._tenants: dict[str, _TenantCounters] = {}

    def record(
        self,
        tenant_id: str,
        *,
        submitted: int = 0,
        completed: int = 0,
        authenticated: int = 0,
        failed: int = 0,
        shed: int = 0,
        quota_hits: int = 0,
        search_seconds: float = 0.0,
        latency_seconds: float | None = None,
    ) -> None:
        """Atomically attribute counters to one tenant."""
        with self._lock:
            counters = self._tenants.get(tenant_id)
            if counters is None:
                counters = self._tenants[tenant_id] = _TenantCounters()
            counters.submitted += submitted
            counters.completed += completed
            counters.authenticated += authenticated
            counters.failed += failed
            counters.shed += shed
            counters.quota_hits += quota_hits
            counters.search_seconds += search_seconds
            if latency_seconds is not None:
                counters.latencies.append(latency_seconds)

    def tenant_ids(self) -> tuple[str, ...]:
        with self._lock:
            return tuple(sorted(self._tenants))

    def snapshot(self) -> dict[str, dict[str, float]]:
        """A consistent per-tenant copy, percentiles included."""
        with self._lock:
            report: dict[str, dict[str, float]] = {}
            for tenant_id in sorted(self._tenants):
                counters = self._tenants[tenant_id]
                entry: dict[str, float] = {
                    "submitted": counters.submitted,
                    "completed": counters.completed,
                    "authenticated": counters.authenticated,
                    "failed": counters.failed,
                    "shed": counters.shed,
                    "quota_hits": counters.quota_hits,
                    "search_seconds": counters.search_seconds,
                }
                if counters.latencies:
                    window = list(counters.latencies)
                    entry["p50_seconds"] = round(percentile(window, 50), 6)
                    entry["p99_seconds"] = round(percentile(window, 99), 6)
                report[tenant_id] = entry
            return report
