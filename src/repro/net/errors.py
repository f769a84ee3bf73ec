"""Typed failures of the client<->CA link.

The fault-injection layer (:mod:`repro.reliability`) produces these; the
retry machinery in :class:`~repro.net.client.NetworkClient` consumes
them. Anything that is *not* one of these types is a programming error
and propagates — only link-level faults are retryable. Three of them are
also server refusals and carry their :class:`~repro.refusals.Refusal`
member: ``MessageCorrupted``, ``ServerBusy`` and ``ServerClosed``.
"""

from __future__ import annotations

from repro.refusals import Refusal

__all__ = [
    "TransportError",
    "MessageDropped",
    "MessageCorrupted",
    "FrameTooLarge",
    "ConnectionLost",
    "ServerBusy",
    "ServerClosed",
]


class TransportError(Exception):
    """Base class for retryable link-level failures."""


class MessageDropped(TransportError):
    """A message never arrived; the sender waited out its timeout."""

    def __init__(self, label: str, waited_seconds: float):
        super().__init__(f"message {label!r} dropped after {waited_seconds:.2f}s timeout")
        self.label = label
        self.waited_seconds = waited_seconds


class MessageCorrupted(TransportError):
    """A frame arrived but failed integrity or structural validation."""

    refusal = Refusal.CORRUPT


class FrameTooLarge(MessageCorrupted):
    """A length prefix claimed a frame beyond the bounded maximum.

    Raised *before* any body bytes are buffered: a corrupt or hostile
    length prefix read off an untrusted socket must never translate into
    an attacker-sized allocation. Subclasses :class:`MessageCorrupted`
    so existing corruption handling (retry, typed reporting) applies.
    """

    def __init__(self, claimed: int, limit: int):
        super().__init__(
            f"frame length prefix claims {claimed} bytes "
            f"(limit {limit}); refusing to buffer"
        )
        self.claimed = claimed
        self.limit = limit


class ConnectionLost(TransportError):
    """The peer's TCP connection failed mid-conversation.

    Distinct from :class:`MessageDropped` (the link is up but one frame
    never arrived): here the socket itself broke — refused, reset, or
    closed under us — and the next attempt needs a fresh connection.
    """


class ServerBusy(TransportError):
    """The CA's front door refused admission: ``refusal`` says whether
    its queue was full or the client already had a search in flight."""

    def __init__(self, message: str, refusal: Refusal = Refusal.DOOR_SATURATED):
        super().__init__(message)
        self.refusal = refusal


class ServerClosed(TransportError):
    """The CA is shut down; submissions are refused deterministically.

    Unlike :class:`ServerBusy` this is not worth an immediate retry
    against the same endpoint — the server is gone, not overloaded.
    """

    refusal = Refusal.CLOSED
