"""Typed enrollment-directory failures.

The directory never fails silently and never leaks a raw ``KeyError``
or shard exception into the serving path: a lookup either returns the
enrollment image, raises :class:`ClientNotEnrolled` (the key genuinely
does not exist anywhere), or raises :class:`DirectoryUnavailable` (the
key exists but every replica holding it is unreachable right now). The
latter *is* a typed shed (``Refusal.DIRECTORY_UNAVAILABLE``), so a storm
can tell "degraded but correct" apart from "broken".
"""

from __future__ import annotations

from repro.refusals import Refusal, RequestShed

__all__ = [
    "DirectoryError",
    "ClientNotEnrolled",
    "ShardDown",
    "ShardTimeout",
    "DirectoryUnavailable",
]


class DirectoryError(Exception):
    """Base class for enrollment-directory failures."""


class ClientNotEnrolled(DirectoryError, KeyError):
    """The identifier is not enrolled on any shard (a true miss)."""

    def __init__(self, client_id: str):
        super().__init__(f"client {client_id!r} not enrolled")
        self.client_id = client_id


class ShardDown(DirectoryError):
    """The shard is administratively or catastrophically offline.

    Not retryable against the same shard — the caller should fail over
    to a replica.
    """

    def __init__(self, shard: str):
        super().__init__(f"shard {shard!r} is down")
        self.shard = shard


class ShardTimeout(DirectoryError):
    """A shard operation timed out (transient; retry with backoff)."""

    def __init__(self, shard: str, operation: str):
        super().__init__(f"shard {shard!r} timed out during {operation}")
        self.shard = shard
        self.operation = operation


class DirectoryUnavailable(DirectoryError, RequestShed):
    """Every replica holding this key is unreachable.

    The degraded-mode signal: a shed (``directory_unavailable``), not an
    error, because the failure is the directory's, not the client's.
    """

    def __init__(self, client_id: str, shards_tried: tuple[str, ...]):
        super().__init__(
            Refusal.DIRECTORY_UNAVAILABLE,
            f"no live replica for client {client_id!r} "
            f"(tried {', '.join(shards_tried) or 'no shards'})"
        )
        self.client_id = client_id
        self.shards_tried = shards_tried
