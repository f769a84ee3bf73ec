"""A crash-consistent :class:`~repro.puf.image_db.EncryptedImageDatabase`.

:class:`DurableImageStore` is the drop-in enrollment store for a server
that must survive ``kill -9``: every enrollment is appended to a
per-store write-ahead log *before* it is acknowledged, the log is
compacted into an encrypted checkpoint every ``checkpoint_every``
appends, and construction recovers whatever the directory holds —
checkpoint first, then a version-monotonic WAL replay, then the
nonce-reuse floor so the tripwire in the inner store can prove the
restored counters clear every keystream a durable ciphertext exists
under.

It duck-types the image database's surface (``enroll`` / ``lookup`` /
``version_of`` / ``__contains__`` / ``__len__`` / record import-export),
so it drops into
:class:`~repro.core.authentication.CertificateAuthority.image_db`
unchanged.
"""

from __future__ import annotations

import threading
import time
from collections.abc import Callable
from pathlib import Path

from repro.durability.log import RecoveryResult, StoreLog, replay_into
from repro.durability.wal import FsyncPolicy
from repro.puf.image_db import EncryptedImageDatabase
from repro.puf.ternary import TernaryMask

__all__ = ["DurableImageStore"]


class DurableImageStore:
    """WAL-backed enrollment store with checkpointed recovery."""

    def __init__(
        self,
        data_dir: str | Path,
        master_key: bytes,
        fsync: FsyncPolicy | str | None = None,
        checkpoint_every: int = 64,
    ):
        if checkpoint_every < 1:
            raise ValueError("checkpoint_every must be positive")
        if isinstance(fsync, str):
            fsync = FsyncPolicy.parse(fsync)
        self.checkpoint_every = checkpoint_every
        self._store = EncryptedImageDatabase(master_key)
        self._log = StoreLog(data_dir, fsync=fsync)
        self._lock = threading.Lock()
        self._appends_since_checkpoint = 0
        self.recovery: RecoveryResult = self._recover()

    # -- recovery --------------------------------------------------------

    def _recover(self) -> RecoveryResult:
        started = time.perf_counter()
        result = self._log.recover()
        if result.checkpoint is not None:
            self._store.restore(result.checkpoint)
        result.applied = replay_into(self._store, result.records)
        # Every version the log acknowledged raises the tripwire floor,
        # even if a newer checkpoint superseded the record itself.
        for record in result.records:
            self._store.register_used_version(record.client_id, record.version)
        result.recovery_seconds = time.perf_counter() - started
        return result

    # -- EncryptedImageDatabase surface ----------------------------------

    def enroll(self, client_id: str, mask: TernaryMask) -> None:
        """Enroll, then make it durable; only then return (= acknowledge)."""
        with self._lock:
            self._install_locked(
                client_id, lambda: self._store.enroll(client_id, mask)
            )

    def _install_locked(self, client_id: str, install: Callable[[], None]) -> None:
        """Install a record and append it to the log; if the append
        raises, withdraw the install, so a refused record is never served."""
        prior = (
            self._store.export_record(client_id) if client_id in self._store else None
        )
        install()
        blob, version = self._store.export_record(client_id)
        try:
            self._log.append(client_id, version, blob)
        except BaseException:
            self._store.withdraw(client_id, prior, version)
            raise
        self._appends_since_checkpoint += 1
        if self._appends_since_checkpoint >= self.checkpoint_every:
            self._checkpoint_locked()

    def lookup(self, client_id: str) -> TernaryMask:
        # Only the copy of (record, version) is under the lock; the
        # decrypt is not, so readers do not queue behind one another and
        # nothing waits for a decrypt. What is copied is always durable:
        # an install holds the lock from install to fsync, and one whose
        # append fails is withdrawn before the lock is let go.
        blob, version = self.export_record(client_id)
        return self._store.decrypt_record(client_id, blob, version)

    def version_of(self, client_id: str) -> int:
        with self._lock:
            return self._store.version_of(client_id)

    def __contains__(self, client_id: str) -> bool:
        with self._lock:
            return client_id in self._store

    def __len__(self) -> int:
        with self._lock:
            return len(self._store)

    def client_ids(self) -> tuple[str, ...]:
        with self._lock:
            return self._store.client_ids()

    def encrypted_record(self, client_id: str) -> bytes:
        with self._lock:
            return self._store.encrypted_record(client_id)

    def export_record(self, client_id: str) -> tuple[bytes, int]:
        with self._lock:
            return self._store.export_record(client_id)

    def import_record(self, client_id: str, blob: bytes, version: int) -> None:
        """Install a replica-transferred record — durably, like enroll."""
        with self._lock:
            self._install_locked(
                client_id,
                lambda: self._store.import_record(client_id, blob, version),
            )

    @property
    def nonce_reuse_trips(self) -> int:
        return self._store.nonce_reuse_trips

    # -- checkpoint / lifecycle ------------------------------------------

    def checkpoint(self) -> None:
        """Compact the WAL into a fresh encrypted checkpoint now."""
        with self._lock:
            self._checkpoint_locked()

    def _checkpoint_locked(self) -> None:
        self._log.checkpoint(self._store.snapshot())
        self._appends_since_checkpoint = 0

    def sync(self) -> None:
        """Force WAL durability regardless of the fsync policy."""
        with self._lock:
            self._log.sync()

    def counters(self) -> dict[str, float]:
        """Durability telemetry for the admin metrics frame."""
        with self._lock:
            counters: dict[str, float] = dict(self._log.counters())
        counters["recovered_records"] = self.recovery.recovered_records
        counters["recovery_seconds"] = self.recovery.recovery_seconds
        counters["torn_bytes_dropped"] = self.recovery.torn_bytes_dropped
        counters["nonce_reuse_trips"] = self.nonce_reuse_trips
        return counters

    def close(self) -> None:
        with self._lock:
            self._log.close()

    def __enter__(self) -> "DurableImageStore":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()
