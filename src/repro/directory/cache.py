"""Per-shard LRU hot cache of decrypted enrollment images.

Each shard's working set gets its own small cache inside the CA's trust
boundary (the images are decrypted only here, same as any lookup). An
insert follows a lookup that just paid a quorum read and may evict the
least-recently-used entry — the requester proved the key is hot.

Entries carry the record's re-enrollment version; a write-through
invalidation counts the entry as ``stale`` so the telemetry separates
"cache too small" (miss) from "cache outdated by a write" (stale).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Generic, TypeVar

__all__ = ["HotCache"]

V = TypeVar("V")


class HotCache(Generic[V]):
    """Thread-safe LRU cache with versioned entries and full telemetry."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("cache capacity must be positive")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._entries: OrderedDict[str, tuple[V, int]] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.stale_invalidations = 0
        self.evictions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, key: str) -> tuple[V, int] | None:
        """The cached ``(value, version)``, refreshing recency; None on miss."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry

    def peek(self, key: str) -> tuple[V, int] | None:
        """Like :meth:`get` but without touching recency or telemetry."""
        with self._lock:
            return self._entries.get(key)

    def put(self, key: str, value: V, version: int) -> None:
        """Insert after a quorum read: may evict the LRU entry to make room."""
        with self._lock:
            if key in self._entries:
                self._entries[key] = (value, version)
                self._entries.move_to_end(key)
                return
            if len(self._entries) >= self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1
            self._entries[key] = (value, version)

    def invalidate(self, key: str) -> bool:
        """Drop ``key`` after a write made the cached copy stale."""
        with self._lock:
            if key in self._entries:
                del self._entries[key]
                self.stale_invalidations += 1
                return True
            return False

    def clear(self) -> None:
        """Drop every entry (a cold restart of the serving tier)."""
        with self._lock:
            self._entries.clear()

    def snapshot(self) -> dict[str, int]:
        """Telemetry counters plus current occupancy."""
        with self._lock:
            return {
                "capacity": self.capacity,
                "entries": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
                "stale_invalidations": self.stale_invalidations,
                "evictions": self.evictions,
            }
