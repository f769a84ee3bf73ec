"""The sharded, replicated enrollment directory.

At the million-client scale the ROADMAP targets, "look up the client's
enrolled PUF image" is its own distributed system, and this module makes
its failure model explicit instead of assuming the image is at hand:

* client identifiers are **consistent-hashed** across N
  :class:`~repro.directory.shard.ShardStore` instances;
* every record is written to **R distinct replicas** — the directory
  assigns the record version and installs the identical ciphertext on
  each replica, so replicas are byte-comparable;
* reads are **quorum reads with retry/backoff**: transient shard
  timeouts are retried, dead or breaker-open shards are skipped, and
  the read **fails over** to replicas until it finds the *current*
  version of the record (the directory is the version authority, so a
  stale replica can never be served as fresh);
* replicas observed stale or missing during a read are **read-repaired**
  in place — this is how a shard that rejoined after downtime catches up
  on the writes it missed;
* each shard's working set has a **per-shard LRU hot cache** with
  hit/miss/stale telemetry; the directory's ``hot_hits`` /
  ``hot_misses`` are the caches' own counts, summed;
* when a key's entire replica set is down, the lookup raises the typed
  :class:`~repro.directory.errors.DirectoryUnavailable` — the serving
  layer counts it as the ``directory_unavailable`` shed it is, so the
  CA degrades instead of erroring.

The directory duck-types :class:`~repro.puf.image_db.EncryptedImageDatabase`
(``enroll`` / ``lookup`` / ``__contains__`` / ``__len__``), so it drops
into :class:`~repro.core.authentication.CertificateAuthority.image_db`
unchanged.
"""

from __future__ import annotations

import threading
import time
from typing import Callable

from repro.directory.cache import HotCache
from repro.directory.errors import (
    ClientNotEnrolled,
    DirectoryUnavailable,
    ShardDown,
    ShardTimeout,
)
from repro.directory.hashring import ConsistentHashRing
from repro.directory.shard import ShardStore
from repro.puf.image_db import EncryptedImageDatabase
from repro.puf.ternary import TernaryMask
from repro.reliability.breaker import CircuitBreaker, CircuitOpenError
from repro.reliability.faults import FaultPlan
from repro.tenancy.context import tenant_of_key
from repro.tenancy.errors import TenantQuotaExceeded
from repro.tenancy.registry import TenantRegistry

__all__ = ["ShardedEnrollmentDirectory"]


class ShardedEnrollmentDirectory:
    """N consistent-hash shards, R-way replication, quorum reads."""

    def __init__(
        self,
        master_key: bytes,
        shards: int = 8,
        replication: int = 2,
        read_quorum: int = 1,
        cache_capacity: int = 256,
        vnodes: int = 64,
        fault_plan: FaultPlan | None = None,
        retry_attempts: int = 3,
        backoff_seconds: float = 0.002,
        breaker_failure_threshold: int = 3,
        breaker_recovery_seconds: float = 0.05,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
        tenants: TenantRegistry | None = None,
    ):
        if shards < 1:
            raise ValueError("shards must be positive")
        if not 1 <= replication <= shards:
            raise ValueError(
                f"replication {replication} impossible with {shards} shards"
            )
        if not 1 <= read_quorum <= replication:
            raise ValueError("read_quorum must be in [1, replication]")
        if retry_attempts < 1:
            raise ValueError("retry_attempts must be positive")
        self.replication = replication
        self.read_quorum = read_quorum
        self.retry_attempts = retry_attempts
        self.backoff_seconds = backoff_seconds
        self._sleep = sleep
        #: Stateless record codec (encrypt-once, install-everywhere).
        self._codec = EncryptedImageDatabase(master_key)
        names = [f"shard-{index:02d}" for index in range(shards)]
        self.ring = ConsistentHashRing(names, vnodes=vnodes)
        self._shards: dict[str, ShardStore] = {
            name: ShardStore(
                name,
                master_key,
                breaker=CircuitBreaker(
                    failure_threshold=breaker_failure_threshold,
                    recovery_seconds=breaker_recovery_seconds,
                    clock=clock,
                ),
                injector=(
                    fault_plan.shard_injector(index)
                    if fault_plan is not None
                    else None
                ),
                sleep=sleep,
            )
            for index, name in enumerate(names)
        }
        self._caches: dict[str, HotCache[TernaryMask]] = {
            name: HotCache(cache_capacity) for name in names
        }
        #: The directory's authoritative key -> current-version map. This
        #: is metadata (no plaintext, no ciphertext); it is what lets a
        #: quorum read reject a stale replica outright.
        self._known: dict[str, int] = {}
        #: The last version minted per key, acknowledged or not: a
        #: version is reserved before its record is encrypted and is
        #: never minted twice, even when every replica refused it.
        self._minted: dict[str, int] = {}
        #: Enrollments in flight per key; a key holds its tenant's quota
        #: slot while it is known or has one in flight.
        self._enrolling: dict[str, int] = {}
        #: Optional tenant registry: when present, enrollments of *new*
        #: keys are checked against the owning tenant's enrollment cap.
        self.tenants = tenants
        #: Records / lookups per tenant namespace (keys are split with
        #: :func:`~repro.tenancy.context.tenant_of_key`; bare keys count
        #: under the default tenant).
        self._tenant_counts: dict[str, int] = {}
        self._tenant_lookups: dict[str, int] = {}
        self._lock = threading.Lock()
        # -- directory-level counters ------------------------------------
        self.quorum_reads = 0
        self.failovers = 0
        self.read_repairs = 0
        self.retries = 0
        self.unavailable_lookups = 0

    @property
    def hot_hits(self) -> int:
        """Look-ups the hot caches answered (their hits, summed)."""
        return sum(cache.hits for cache in self._caches.values())

    @property
    def hot_misses(self) -> int:
        """Look-ups that went to the shards (the caches' misses, summed)."""
        return sum(cache.misses for cache in self._caches.values())

    # -- topology --------------------------------------------------------

    @property
    def shard_names(self) -> tuple[str, ...]:
        return self.ring.shard_names

    def shard(self, name: str) -> ShardStore:
        return self._shards[name]

    def replicas_for(self, client_id: str) -> tuple[str, ...]:
        """The key's replica set, primary first."""
        return self.ring.replicas_for(client_id, self.replication)

    def kill_shard(self, name: str) -> None:
        """Model whole-shard loss (crash / partition); data survives."""
        self._shards[name].kill()

    def revive_shard(self, name: str) -> None:
        """Bring a shard back; breaker probes re-admit it, reads repair it."""
        self._shards[name].revive()

    def drop_hot_caches(self) -> None:
        """Cold-start the caching tier (entries only; telemetry survives)."""
        for cache in self._caches.values():
            cache.clear()

    # -- EncryptedImageDatabase surface ----------------------------------

    def __contains__(self, client_id: str) -> bool:
        with self._lock:
            return client_id in self._known

    def __len__(self) -> int:
        with self._lock:
            return len(self._known)

    def client_ids(self) -> tuple[str, ...]:
        with self._lock:
            return tuple(sorted(self._known))

    def version_of(self, client_id: str) -> int:
        with self._lock:
            if client_id not in self._known:
                raise ClientNotEnrolled(client_id)
            return self._known[client_id]

    def tenant_record_count(self, tenant_id: str) -> int:
        """How many records this tenant currently holds in the directory."""
        with self._lock:
            return self._tenant_counts.get(tenant_id, 0)

    def enroll(self, client_id: str, mask: TernaryMask) -> None:
        """Encrypt once, install on all R replicas, bump the version.

        The key may be tenant-namespaced (``tenant::client``); installing
        a *new* key counts against the owning tenant's ``max_enrollments``
        quota when a registry is attached, raising
        :class:`~repro.tenancy.errors.TenantQuotaExceeded` at the door —
        no replica is touched for an over-quota install. Re-enrolling an
        existing key never hits the cap (it replaces, not grows).

        Tolerates partial replica outage: the write succeeds if at least
        one replica accepts it (survivors re-seed the others through
        read-repair once they rejoin). Raises
        :class:`DirectoryUnavailable` only when *every* replica refuses;
        the new key's quota slot is then given back, its version is not.
        """
        tenant = tenant_of_key(client_id)
        replicas = self.replicas_for(client_id)
        with self._lock:
            # Version and quota slot are reserved in one hold of the
            # lock, so two concurrent enrollments can neither mint one
            # version twice (two masks under one CTR keystream) nor both
            # take a tenant's last slot.
            if client_id not in self._known and client_id not in self._enrolling:
                held = self._tenant_counts.get(tenant, 0)
                cap = (
                    self.tenants.enrollment_cap(tenant)
                    if self.tenants is not None
                    else None
                )
                if cap is not None and held >= cap:
                    raise TenantQuotaExceeded(
                        tenant,
                        "max_enrollments",
                        f"{held}/{cap} records already enrolled",
                    )
                self._tenant_counts[tenant] = held + 1
            self._enrolling[client_id] = self._enrolling.get(client_id, 0) + 1
            version = self._minted.get(client_id, -1) + 1
            self._minted[client_id] = version
        accepted = 0
        try:
            blob = self._codec.encrypt_record(client_id, mask, version)
            for name in replicas:
                try:
                    self._install_replica(name, client_id, blob, version)
                    accepted += 1
                except (ShardDown, ShardTimeout, CircuitOpenError):
                    continue
        finally:
            with self._lock:
                self._enrolling[client_id] -= 1
                if not self._enrolling[client_id]:
                    del self._enrolling[client_id]
                if accepted:
                    self._known[client_id] = max(
                        version, self._known.get(client_id, -1)
                    )
                elif (
                    client_id not in self._known
                    and client_id not in self._enrolling
                ):
                    # Refused everywhere: the slot goes back; the version
                    # stays burnt (a skipped version is safe, a reused
                    # one is not).
                    self._tenant_counts[tenant] -= 1
        if accepted == 0:
            raise DirectoryUnavailable(client_id, replicas)
        # A write makes any cached copy stale — count it as such.
        self._caches[replicas[0]].invalidate(client_id)

    def _install_replica(
        self, name: str, client_id: str, blob: bytes, version: int
    ) -> None:
        """One replica install with the same retry budget reads get.

        A transient timeout must not demote a write to fewer replicas —
        that would manufacture divergence read repair then has to clean
        up — so installs retry/backoff exactly like ``_read_replica``.
        """
        last: Exception | None = None
        for attempt in range(self.retry_attempts):
            try:
                self._shards[name].install(client_id, blob, version)
                return
            except ShardTimeout as exc:
                last = exc
                with self._lock:
                    self.retries += 1
                self._sleep(self.backoff_seconds * (2**attempt))
            except (ShardDown, CircuitOpenError):
                raise
        assert last is not None
        raise last

    def lookup(self, client_id: str) -> TernaryMask:
        """Decrypt and return the enrollment image for ``client_id``."""
        tenant = tenant_of_key(client_id)
        with self._lock:
            if client_id not in self._known:
                raise ClientNotEnrolled(client_id)
            current_version = self._known[client_id]
            self._tenant_lookups[tenant] = (
                self._tenant_lookups.get(tenant, 0) + 1
            )
        replicas = self.replicas_for(client_id)
        cache = self._caches[replicas[0]]
        mask = cache.get(client_id, current_version)
        if mask is not None:
            return mask
        mask = self._quorum_read(client_id, replicas, current_version)
        cache.put(client_id, mask, current_version)
        return mask

    # -- quorum read ------------------------------------------------------

    def _read_replica(self, name: str, client_id: str) -> tuple[bytes, int] | None:
        """One replica read with retry/backoff on transient timeouts.

        Returns the replica's ``(record, version)`` (or None when the
        replica does not hold the key); raises ``ShardDown`` /
        ``CircuitOpenError`` / ``ShardTimeout`` when the replica stayed
        unreachable through the retry budget.
        """
        last: Exception | None = None
        for attempt in range(self.retry_attempts):
            try:
                return self._shards[name].read(client_id)
            except ShardTimeout as exc:
                last = exc
                with self._lock:
                    self.retries += 1
                self._sleep(self.backoff_seconds * (2**attempt))
            except (ShardDown, CircuitOpenError):
                raise
        assert last is not None
        raise last

    def _quorum_read(
        self,
        client_id: str,
        replicas: tuple[str, ...],
        current_version: int,
    ) -> TernaryMask:
        """Walk the replica set until the current record version is found."""
        with self._lock:
            self.quorum_reads += 1
        responses: dict[str, tuple[bytes, int] | None] = {}
        winner: tuple[str, bytes] | None = None
        for name in replicas:
            try:
                response = self._read_replica(name, client_id)
            except (ShardDown, ShardTimeout, CircuitOpenError):
                continue
            responses[name] = response
            if (
                winner is None
                and response is not None
                and response[1] == current_version
            ):
                winner = (name, response[0])
            if winner is not None and len(responses) >= self.read_quorum:
                break
        if winner is None:
            # Live replicas may have answered, but none held the current
            # version — serving a stale enrollment image could fail an
            # honest client, so degrade instead.
            with self._lock:
                self.unavailable_lookups += 1
            raise DirectoryUnavailable(client_id, replicas)
        winner_shard, blob = winner
        observed: dict[str, int | None] = {
            name: (response[1] if response is not None else None)
            for name, response in responses.items()
        }
        # Replicas the quorum never consulted still get a cheap version
        # probe: this is what lets a shard that rejoined after downtime
        # catch up on the writes it missed, even though the primary
        # satisfied the read. The probe doubles as the breaker's
        # half-open test for a recovering shard.
        for name in replicas:
            if name in observed:
                continue
            try:
                observed[name] = self._shards[name].version_of(client_id)
            except (ShardDown, ShardTimeout, CircuitOpenError):
                continue
        self._read_repair(client_id, blob, current_version, observed, winner_shard)
        if winner_shard != replicas[0]:
            with self._lock:
                self.failovers += 1
        return self._codec.decrypt_record(client_id, blob, current_version)

    def _read_repair(
        self,
        client_id: str,
        blob: bytes,
        version: int,
        observed: dict[str, int | None],
        winner_shard: str,
    ) -> None:
        """Install the winning record on observed stale/missing replicas."""
        repaired = 0
        for name, replica_version in observed.items():
            if name == winner_shard:
                continue
            if replica_version is not None and replica_version >= version:
                continue
            try:
                self._shards[name].repair(client_id, blob, version)
                repaired += 1
            except (ShardDown, ShardTimeout, CircuitOpenError):
                continue
        if repaired:
            with self._lock:
                self.read_repairs += repaired

    # -- introspection ----------------------------------------------------

    def snapshot(self) -> dict[str, object]:
        """One consistent read of the directory's operational counters."""
        cache_totals = {"hits": 0, "misses": 0, "stale_invalidations": 0,
                        "evictions": 0}
        for cache in self._caches.values():
            snap = cache.snapshot()
            for key in cache_totals:
                cache_totals[key] += snap[key]
        with self._lock:
            counters = {
                "clients": len(self._known),
                "shards": len(self._shards),
                "replication": self.replication,
                "read_quorum": self.read_quorum,
                "hot_hits": cache_totals["hits"],
                "hot_misses": cache_totals["misses"],
                "quorum_reads": self.quorum_reads,
                "failovers": self.failovers,
                "read_repairs": self.read_repairs,
                "retries": self.retries,
                "unavailable_lookups": self.unavailable_lookups,
            }
            tenant_ids = sorted(
                set(self._tenant_counts) | set(self._tenant_lookups)
            )
            tenants: dict[str, dict[str, object]] = {}
            for tenant_id in tenant_ids:
                entry: dict[str, object] = {
                    "enrollments": self._tenant_counts.get(tenant_id, 0),
                    "lookups": self._tenant_lookups.get(tenant_id, 0),
                }
                if self.tenants is not None:
                    entry["enrollment_cap"] = self.tenants.enrollment_cap(
                        tenant_id
                    )
                tenants[tenant_id] = entry
            counters["tenants"] = tenants
        counters["cache"] = cache_totals
        counters["shards_detail"] = {
            name: shard.snapshot() for name, shard in self._shards.items()
        }
        return counters
