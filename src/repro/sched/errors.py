"""Typed scheduler failures.

The scheduler never loses a request silently: every submission either
resolves to a :class:`~repro.engines.result.SearchResult` or fails with
one of these types, carrying the reason the admission controller or the
dispatcher gave up on it. The serving layer counts sheds off the
``reason`` field, and the chaos harness treats them as typed outcomes.
"""

from __future__ import annotations

__all__ = [
    "SchedulerError",
    "SchedulerClosed",
    "RequestShed",
    "SHED_SATURATED",
    "SHED_DEADLINE_UNMEETABLE",
    "SHED_DEADLINE_EXPIRED",
    "SHED_SHUTDOWN",
    "SHED_NO_DEVICES",
    "SHED_DIRECTORY_UNAVAILABLE",
    "SHED_TENANT_QUOTA",
]

#: A full admission queue refused the request outright.
SHED_SATURATED = "saturated"
#: The deadline cannot be met even by the cheapest useful search.
SHED_DEADLINE_UNMEETABLE = "deadline_unmeetable"
#: The deadline passed while the request was queued or in service.
SHED_DEADLINE_EXPIRED = "deadline_expired"
#: The scheduler was closed without draining.
SHED_SHUTDOWN = "shutdown"
#: Every device in the fleet stayed quarantined past the grace window.
SHED_NO_DEVICES = "no_healthy_devices"
#: Every replica of the client's enrollment record is unreachable: the
#: CA cannot even fetch the image to search against. Degraded-mode
#: serving sheds the request instead of erroring — the failure is the
#: directory's, not the client's, and it clears when a replica rejoins.
SHED_DIRECTORY_UNAVAILABLE = "directory_unavailable"
#: The request's tenant exhausted its admission budget (token-bucket
#: lookup rate). The failure is the *tenant's* aggregate behaviour, not
#: this request's: within-quota tenants keep being admitted, and the
#: shed clears as soon as the bucket refills.
SHED_TENANT_QUOTA = "tenant_quota"


class SchedulerError(Exception):
    """Base class for scheduler-level failures."""


class SchedulerClosed(SchedulerError):
    """Submission after the dispatcher was closed."""


class RequestShed(SchedulerError):
    """The scheduler dropped this request; ``reason`` says why."""

    def __init__(self, reason: str, detail: str = ""):
        message = f"request shed ({reason})"
        if detail:
            message += f": {detail}"
        super().__init__(message)
        self.reason = reason
        self.detail = detail
