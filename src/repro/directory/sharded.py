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
  hit/miss/stale telemetry;
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
from repro.durability.log import ShardLog
from repro.durability.wal import FsyncPolicy
from repro.engines.result import DirectoryStats
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
        data_dir: str | None = None,
        fsync: FsyncPolicy | str | None = None,
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
        if isinstance(fsync, str):
            fsync = FsyncPolicy.parse(fsync)
        #: Root of the per-shard durable logs (None = in-memory shards).
        self.data_dir = data_dir
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
                log=(
                    ShardLog(f"{data_dir}/{name}", fsync=fsync)
                    if data_dir is not None
                    else None
                ),
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
        self.hot_hits = 0
        self.hot_misses = 0
        self.quorum_reads = 0
        self.failovers = 0
        self.read_repairs = 0
        self.retries = 0
        self.unavailable_lookups = 0
        self.anti_entropy_sweeps = 0
        self.anti_entropy_repairs = 0
        if data_dir is not None:
            self._rebuild_from_recovery()

    def _rebuild_from_recovery(self) -> None:
        """Re-derive the authority map from what the shards recovered.

        Each shard recovered its own durable slice; the directory's
        version authority for a key is the max version any replica
        holds. Tenant record counts are re-derived from the same map, so
        quota accounting survives the restart too. Reads go straight to
        the recovered stores (construction time: all shards alive, no
        faults injected yet), bypassing the breaker.
        """
        for shard in self._shards.values():
            for client_id in shard.store.client_ids():
                version = shard.store.version_of(client_id)
                if version > self._known.get(client_id, -1):
                    self._known[client_id] = version
        for client_id in self._known:
            tenant = tenant_of_key(client_id)
            self._tenant_counts[tenant] = (
                self._tenant_counts.get(tenant, 0) + 1
            )

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
        :class:`DirectoryUnavailable` only when *every* replica refuses.
        """
        tenant = tenant_of_key(client_id)
        replicas = self.replicas_for(client_id)
        with self._lock:
            is_new = client_id not in self._known
            if is_new and self.tenants is not None:
                cap = self.tenants.enrollment_cap(tenant)
                held = self._tenant_counts.get(tenant, 0)
                if cap is not None and held >= cap:
                    raise TenantQuotaExceeded(
                        tenant,
                        "max_enrollments",
                        f"{held}/{cap} records already enrolled",
                    )
            version = self._known.get(client_id, -1) + 1
        blob = self._codec.encrypt_record(client_id, mask, version)
        accepted = 0
        for name in replicas:
            try:
                self._install_replica(name, client_id, blob, version)
                accepted += 1
            except (ShardDown, ShardTimeout, CircuitOpenError):
                continue
        if accepted == 0:
            raise DirectoryUnavailable(client_id, replicas)
        with self._lock:
            if client_id not in self._known:
                self._tenant_counts[tenant] = (
                    self._tenant_counts.get(tenant, 0) + 1
                )
            self._known[client_id] = version
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
        mask, _stats = self.lookup_with_stats(client_id)
        return mask

    def lookup_with_stats(
        self, client_id: str
    ) -> tuple[TernaryMask, DirectoryStats]:
        """Lookup plus the per-lookup telemetry the serving layer records."""
        start = time.perf_counter()
        tenant = tenant_of_key(client_id)
        with self._lock:
            if client_id not in self._known:
                raise ClientNotEnrolled(client_id)
            current_version = self._known[client_id]
            self._tenant_lookups[tenant] = (
                self._tenant_lookups.get(tenant, 0) + 1
            )
        replicas = self.replicas_for(client_id)
        primary = replicas[0]
        cache = self._caches[primary]
        entry = cache.get(client_id)
        if entry is not None and entry[1] == current_version:
            with self._lock:
                self.hot_hits += 1
            return entry[0], DirectoryStats(
                source="hot-cache",
                tenant=tenant,
                hot_hit=True,
                lookup_seconds=time.perf_counter() - start,
            )
        if entry is not None:
            # Version raced ahead of the cache (write-through invalidation
            # lost the race with this read) — treat as stale, not hit.
            cache.invalidate(client_id)
        with self._lock:
            self.hot_misses += 1
        mask, stats = self._quorum_read(
            client_id, replicas, current_version, start
        )
        cache.put(client_id, mask, current_version)
        return mask, stats

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
        start: float,
    ) -> tuple[TernaryMask, DirectoryStats]:
        """Walk the replica set until the current record version is found."""
        with self._lock:
            self.quorum_reads += 1
        responses: dict[str, tuple[bytes, int] | None] = {}
        winner: tuple[str, bytes] | None = None
        retries_before = self.retries
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
        repairs = self._read_repair(
            client_id, blob, current_version, observed, winner_shard
        )
        if winner_shard != replicas[0]:
            with self._lock:
                self.failovers += 1
        mask = self._codec.decrypt_record(client_id, blob, current_version)
        with self._lock:
            retries = self.retries - retries_before
        return mask, DirectoryStats(
            source="primary" if winner_shard == replicas[0] else "replica",
            tenant=tenant_of_key(client_id),
            shard=winner_shard,
            replicas_read=len(responses),
            retries=retries,
            read_repairs=repairs,
            hot_hit=False,
            lookup_seconds=time.perf_counter() - start,
        )

    def _read_repair(
        self,
        client_id: str,
        blob: bytes,
        version: int,
        observed: dict[str, int | None],
        winner_shard: str,
    ) -> int:
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
        return repaired

    # -- durability / anti-entropy -----------------------------------------

    def checkpoint_all(self) -> None:
        """Compact every durable shard's WAL into a fresh checkpoint."""
        for shard in self._shards.values():
            shard.checkpoint()

    def close(self) -> None:
        """Release every durable shard's log handle (no-op in-memory)."""
        for shard in self._shards.values():
            shard.close()

    def anti_entropy(self) -> dict[str, int]:
        """One catch-up sweep: heal replicas that missed durable writes.

        A replica that recovered from an older checkpoint — or lost its
        data directory entirely — holds stale versions of keys the rest
        of the replica set acknowledged. The sweep walks the authority
        map, probes each key's replica versions, and pushes the winning
        still-encrypted record through the existing version-authoritative
        read-repair path. Best-effort by design: unreachable replica
        sets are counted, never raised, and a later sweep (or a demand
        read) finishes the job.
        """
        report = {"keys_checked": 0, "repaired": 0, "unreachable": 0}
        with self._lock:
            self.anti_entropy_sweeps += 1
            known = dict(self._known)
        for client_id, version in known.items():
            report["keys_checked"] += 1
            replicas = self.replicas_for(client_id)
            observed: dict[str, int | None] = {}
            for name in replicas:
                try:
                    observed[name] = self._shards[name].version_of(client_id)
                except (ShardDown, ShardTimeout, CircuitOpenError):
                    continue
            stale = [
                name
                for name, seen in observed.items()
                if seen is None or seen < version
            ]
            if not stale:
                continue
            winner: tuple[str, bytes] | None = None
            for name in replicas:
                if observed.get(name) != version:
                    continue
                try:
                    response = self._read_replica(name, client_id)
                except (ShardDown, ShardTimeout, CircuitOpenError):
                    continue
                if response is not None and response[1] == version:
                    winner = (name, response[0])
                    break
            if winner is None:
                report["unreachable"] += 1
                continue
            winner_shard, blob = winner
            report["repaired"] += self._read_repair(
                client_id, blob, version, observed, winner_shard
            )
        if report["repaired"]:
            with self._lock:
                self.anti_entropy_repairs += report["repaired"]
        return report

    # -- introspection ----------------------------------------------------

    def cache_snapshot(self) -> dict[str, dict[str, int]]:
        """Per-shard hot-cache telemetry."""
        return {name: cache.snapshot() for name, cache in self._caches.items()}

    def snapshot(self) -> dict[str, object]:
        """One consistent read of the directory's operational counters."""
        with self._lock:
            counters = {
                "clients": len(self._known),
                "shards": len(self._shards),
                "replication": self.replication,
                "read_quorum": self.read_quorum,
                "hot_hits": self.hot_hits,
                "hot_misses": self.hot_misses,
                "quorum_reads": self.quorum_reads,
                "failovers": self.failovers,
                "read_repairs": self.read_repairs,
                "retries": self.retries,
                "unavailable_lookups": self.unavailable_lookups,
                "anti_entropy_sweeps": self.anti_entropy_sweeps,
                "anti_entropy_repairs": self.anti_entropy_repairs,
                "durable": self.data_dir is not None,
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
        cache_totals = {"hits": 0, "misses": 0, "stale_invalidations": 0,
                        "evictions": 0}
        for cache in self._caches.values():
            snap = cache.snapshot()
            for key in cache_totals:
                cache_totals[key] += snap[key]
        counters["cache"] = cache_totals
        counters["shards_detail"] = {
            name: shard.snapshot() for name, shard in self._shards.items()
        }
        return counters
