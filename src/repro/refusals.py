"""Every typed refusal, in one table.

In the paper's protocol (Figure 1) a request ends one of three ways: the
CA authenticates the client, denies it, or refuses it with a stated
reason. A :class:`Refusal` member is one such reason: the ``kind`` an
:class:`~repro.net.messages.ErrorReply` puts on the wire and, for a
shed, the ``reason`` the wire and ``ServerMetrics.shed_reasons`` count.
Its exception follows from its kind: ``shed`` -> :class:`RequestShed`
(``DirectoryUnavailable`` and ``TenantQuotaExceeded`` are two),
``busy`` / ``closed`` / ``corrupt`` -> ``ServerBusy`` / ``ServerClosed``
/ ``MessageCorrupted`` (:mod:`repro.net.errors`). Every exception that
*is* a refusal carries its member as ``.refusal``, and the wire and the
harnesses look it up; an exception without one goes out as ``error``.

There is no "retryable" column, because nothing would read it: a
:class:`~repro.net.client.NetworkClient` retries exactly what is a
``TransportError`` — ``busy``, ``closed`` and ``corrupt`` refusals and
the link's own faults — and never a shed.

This module imports nothing from the package, so the wire, the storms
and the directory can name a refusal without loading the dispatcher.
"""

from __future__ import annotations

from enum import Enum

__all__ = ["Refusal", "RequestShed"]


class Refusal(Enum):
    """One reason the CA refuses a request: its wire ``kind`` and, for a
    shed, its ``reason``."""

    kind: str
    reason: str

    #: The dispatcher's admission queue is full.
    SATURATED = ("shed", "saturated")
    #: The deadline cannot be met even by the cheapest useful search.
    DEADLINE_UNMEETABLE = ("shed", "deadline_unmeetable")
    #: The deadline passed while the request was queued or in service.
    DEADLINE_EXPIRED = ("shed", "deadline_expired")
    #: The dispatcher was closed without draining.
    SHUTDOWN = ("shed", "shutdown")
    #: Every device in the fleet stayed quarantined past the grace window.
    NO_HEALTHY_DEVICES = ("shed", "no_healthy_devices")
    #: Every replica of the client's enrollment record is unreachable:
    #: the directory's failure, not the client's, and it clears when a
    #: replica rejoins.
    DIRECTORY_UNAVAILABLE = ("shed", "directory_unavailable")
    #: The tenant exhausted a budget — its lookup-rate token bucket at
    #: admission, or its enrollment cap. Within-quota tenants keep being
    #: served.
    TENANT_QUOTA = ("shed", "tenant_quota")
    #: The front door's queue is full.
    DOOR_SATURATED = ("busy", "")
    #: The client already has a search in flight.
    DUPLICATE_IN_FLIGHT = ("busy", "")
    #: The server, or the dispatcher it serves on, is shut down.
    CLOSED = ("closed", "")
    #: What arrived could not be parsed.
    CORRUPT = ("corrupt", "")

    def __new__(cls, kind: str, reason: str) -> Refusal:
        member = object.__new__(cls)
        # The two busy members share a wire form, so the value is the
        # member's position, not its (kind, reason).
        member._value_ = len(cls.__members__)
        member.kind = kind
        member.reason = reason
        return member

    @classmethod
    def of(cls, exc: BaseException) -> Refusal | None:
        """The member ``exc`` carries, or None when it is no refusal."""
        return getattr(exc, "refusal", None)

    @classmethod
    def on_wire(cls, kind: str, reason: str) -> Refusal | None:
        """The first member that goes out as ``(kind, reason)``, or None."""
        return next(
            (member for member in cls if (member.kind, member.reason) == (kind, reason)),
            None,
        )


class RequestShed(Exception):
    """The server dropped this request; ``refusal`` says why."""

    def __init__(self, refusal: Refusal, detail: str = ""):
        message = f"request shed ({refusal.reason})"
        if detail:
            message += f": {detail}"
        super().__init__(message)
        self.refusal = refusal
        self.detail = detail

    @property
    def reason(self) -> str:
        """The shed reason, as the wire and ``shed_reasons`` spell it."""
        return self.refusal.reason
