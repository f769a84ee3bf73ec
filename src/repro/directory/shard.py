"""One shard of the enrollment directory.

A shard is an :class:`~repro.puf.image_db.EncryptedImageDatabase`
holding the slice of the keyspace the consistent-hash ring assigns it,
guarded by two failure-domain mechanisms:

* a per-shard :class:`~repro.reliability.breaker.CircuitBreaker` — a
  shard that keeps failing is refused instantly (``CircuitOpenError``)
  instead of burning the quorum read's retry budget on it, and its
  half-open probes are what detect the shard rejoining;
* a seeded :class:`~repro.reliability.faults.ShardFaultInjector` — the
  deterministic source of transient timeouts and slow reads, so a chaos
  run over the directory is a regression test, not a dice roll.

``kill()``/``revive()`` model whole-shard loss (process crash, network
partition): a dead shard fails every operation with
:class:`~repro.directory.errors.ShardDown` until revived. Its *data* is
not destroyed — the interesting failure mode is unavailability plus the
staleness it causes (writes that landed on the surviving replicas while
this shard was dark), which read-repair heals after the rejoin.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, TypeVar

from repro.directory.errors import ShardDown, ShardTimeout
from repro.puf.image_db import EncryptedImageDatabase
from repro.reliability.breaker import CircuitBreaker
from repro.reliability.faults import ShardFaultInjector

__all__ = ["ShardStore"]

T = TypeVar("T")


class ShardStore:
    """One breaker-guarded, fault-injectable enrollment shard."""

    def __init__(
        self,
        name: str,
        master_key: bytes,
        breaker: CircuitBreaker | None = None,
        injector: ShardFaultInjector | None = None,
        sleep: Callable[[float], None] = time.sleep,
    ):
        self.name = name
        self.store = EncryptedImageDatabase(master_key)
        self.breaker = breaker if breaker is not None else CircuitBreaker(
            failure_threshold=3, recovery_seconds=0.05
        )
        self.injector = injector
        self._sleep = sleep
        self._lock = threading.Lock()
        self._alive = True
        self.reads = 0
        self.writes = 0
        self.repairs_received = 0
        self.timeouts_injected = 0
        self.kills = 0

    # -- availability ----------------------------------------------------

    @property
    def alive(self) -> bool:
        with self._lock:
            return self._alive

    def kill(self) -> None:
        """Take the shard offline; every operation now fails ShardDown."""
        with self._lock:
            if self._alive:
                self._alive = False
                self.kills += 1

    def revive(self) -> None:
        """Bring the shard back; the breaker's probes re-admit it."""
        with self._lock:
            self._alive = True

    # -- guarded operations ----------------------------------------------

    def _call(self, operation: str, fn: Callable[[], T]) -> T:
        """Run one store operation through faults, liveness, and breaker."""

        def guarded() -> T:
            with self._lock:
                alive = self._alive
            if not alive:
                raise ShardDown(self.name)
            if self.injector is not None:
                fault = self.injector.next()
                if fault == "timeout":
                    with self._lock:
                        self.timeouts_injected += 1
                    raise ShardTimeout(self.name, operation)
                if fault == "slow":
                    self._sleep(self.injector.spec.shard_slow_seconds)
            return fn()

        return self.breaker.call(guarded)

    def read(self, client_id: str) -> tuple[bytes, int] | None:
        """The still-encrypted ``(record, version)``; None if not held.

        A missing record is a *clean* answer, not a shard failure — it
        must not trip the breaker (the replica may simply have missed a
        write while it was down; read-repair fixes that).
        """

        def op() -> tuple[bytes, int] | None:
            with self._lock:
                self.reads += 1
            if client_id not in self.store:
                return None
            return self.store.export_record(client_id)

        return self._call("read", op)

    def install(self, client_id: str, blob: bytes, version: int) -> None:
        """Replicated write: store a directory-encrypted record verbatim.

        The directory is the version authority — every replica of a key
        holds the identical ciphertext under the identical version, so
        replicas stay byte-comparable and records stay portable.
        """

        def op() -> None:
            with self._lock:
                self.writes += 1
                self._import_newer(client_id, blob, version)

        self._call("write", op)

    def repair(self, client_id: str, blob: bytes, version: int) -> None:
        """Install a newer still-encrypted record from a peer replica."""

        def op() -> None:
            with self._lock:
                self.repairs_received += 1
                self._import_newer(client_id, blob, version)

        self._call("repair", op)

    def _import_newer(self, client_id: str, blob: bytes, version: int) -> None:
        """Store the record unless one as new is held: a replica's version
        of a key only rises, whatever order two racing installs land in."""
        if client_id not in self.store or self.store.version_of(client_id) < version:
            self.store.import_record(client_id, blob, version)

    def version_of(self, client_id: str) -> int | None:
        """The held record version without decrypting (None if absent)."""

        def op() -> int | None:
            if client_id not in self.store:
                return None
            return self.store.version_of(client_id)

        return self._call("version", op)

    # -- introspection ----------------------------------------------------

    def __len__(self) -> int:
        return len(self.store)

    def snapshot(self) -> dict[str, object]:
        """Operational counters for the directory-wide snapshot."""
        with self._lock:
            return {
                "alive": self._alive,
                "records": len(self.store),
                "reads": self.reads,
                "writes": self.writes,
                "repairs_received": self.repairs_received,
                "timeouts_injected": self.timeouts_injected,
                "kills": self.kills,
                "breaker_state": self.breaker.state,
            }
