"""Consistent hashing of client identifiers onto shard stores.

Classic ring construction: each shard contributes ``vnodes`` virtual
points placed by hashing ``"{shard}#{replica_index}"``; a key is owned
by the first point clockwise from its own hash. Replica sets walk the
ring onward, skipping points until ``r`` *distinct* shards are
collected, so replicas of one key land on different stores by
construction.

Consistent hashing is what makes shard membership changes cheap: adding
or removing one shard reassigns only the keys adjacent to its points,
not the whole keyspace — the property the million-client ROADMAP target
needs when a directory tier is resized under load.
"""

from __future__ import annotations

import bisect

from repro.hashes.native import sha3_256

__all__ = ["ConsistentHashRing"]


def _point(label: str) -> int:
    """Ring position of a label: the first 8 bytes of its SHA3-256."""
    return int.from_bytes(sha3_256(label.encode())[:8], "big")


class ConsistentHashRing:
    """An immutable-after-build consistent-hash ring over shard names."""

    def __init__(self, shard_names: list[str] | tuple[str, ...], vnodes: int = 64):
        if not shard_names:
            raise ValueError("ring needs at least one shard")
        if len(set(shard_names)) != len(shard_names):
            raise ValueError("shard names must be unique")
        if vnodes < 1:
            raise ValueError("vnodes must be positive")
        self.shard_names = tuple(shard_names)
        self.vnodes = vnodes
        points: list[tuple[int, str]] = []
        for name in self.shard_names:
            for replica_index in range(vnodes):
                points.append((_point(f"{name}#{replica_index}"), name))
        points.sort()
        self._points = [p for p, _name in points]
        self._owners = [name for _p, name in points]

    def replicas_for(self, key: str, r: int) -> tuple[str, ...]:
        """The ``r`` distinct shards owning ``key``, primary first."""
        if not 1 <= r <= len(self.shard_names):
            raise ValueError(
                f"replication {r} impossible with {len(self.shard_names)} shards"
            )
        start = bisect.bisect_right(self._points, _point(key))
        owners: list[str] = []
        for offset in range(len(self._points)):
            name = self._owners[(start + offset) % len(self._points)]
            if name not in owners:
                owners.append(name)
                if len(owners) == r:
                    break
        return tuple(owners)

    def primary_for(self, key: str) -> str:
        """The shard owning ``key`` (first on the ring)."""
        return self.replicas_for(key, 1)[0]
