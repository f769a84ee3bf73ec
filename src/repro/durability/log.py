"""The image store's durable log: WAL + periodic checkpoint, and recovery.

A :class:`StoreLog` owns one directory on disk::

    <dir>/wal.log          append-only enrollment records
    <dir>/checkpoint.snap  latest compaction (still-encrypted snapshot)

Enrollment records carry ``(client_id, version, ciphertext)`` — the
payload is the *encrypted* record straight from
:meth:`~repro.puf.image_db.EncryptedImageDatabase.export_record`, so
nothing the WAL persists is more sensitive than the database file
itself, and a recovered record is byte-identical to the acknowledged
one (the CTR nonce is a pure function of id and version, so the blob is
portable into the restored store).

A checkpoint is the store's encrypted ``snapshot()`` written
atomically (temp file, fsync, rename, directory fsync) and *then* the
WAL is reset — a crash between the rename and the reset replays old
records over the new checkpoint, which the version guard in
:func:`replay_into` makes idempotent.
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass, field
from pathlib import Path

from repro.durability.errors import CheckpointCorrupt
from repro.durability.wal import (
    FsyncPolicy,
    WAL_HEADER,
    WAL_MAGIC,
    WriteAheadLog,
    scan_wal,
)

__all__ = ["StoreLog", "RecoveryResult", "EnrollRecord", "replay_into"]

_WAL_NAME = "wal.log"
_CHECKPOINT_NAME = "checkpoint.snap"


@dataclass(frozen=True)
class EnrollRecord:
    """One durable enrollment: who, which version, which ciphertext."""

    client_id: str
    version: int
    blob: bytes

    def to_payload(self) -> bytes:
        return json.dumps(
            {
                "client_id": self.client_id,
                "version": self.version,
                "blob": self.blob.hex(),
            },
            sort_keys=True,
            separators=(",", ":"),
        ).encode()

    @classmethod
    def from_payload(cls, payload: bytes) -> "EnrollRecord":
        body = json.loads(payload.decode())
        return cls(
            client_id=body["client_id"],
            version=int(body["version"]),
            blob=bytes.fromhex(body["blob"]),
        )


@dataclass
class RecoveryResult:
    """Everything one recovery pass restored and measured."""

    checkpoint: bytes | None
    records: list[EnrollRecord]
    torn_bytes_dropped: int
    wal_bytes: int
    recovery_seconds: float = 0.0
    #: Records actually applied to the store (replay skips records a
    #: newer checkpoint already absorbed).
    applied: int = 0

    @property
    def recovered_records(self) -> int:
        return len(self.records)


def replay_into(store, records: list[EnrollRecord]) -> int:
    """Apply WAL records onto a restored store, version-monotonically.

    A record older than what the store already holds for that client is
    skipped — that is what makes "checkpoint then crash before WAL
    reset" idempotent — so the restored version counter is always the
    maximum the log ever acknowledged.
    """
    applied = 0
    for record in records:
        try:
            current = store.version_of(record.client_id)
        except KeyError:
            current = -1
        if record.version < current:
            continue
        store.import_record(record.client_id, record.blob, record.version)
        applied += 1
    return applied


class StoreLog:
    """The store's durability: append records, checkpoint, recover."""

    def __init__(
        self,
        directory: str | Path,
        fsync: FsyncPolicy | None = None,
    ):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.fsync_policy = fsync if fsync is not None else FsyncPolicy()
        self.wal_path = self.directory / _WAL_NAME
        self.checkpoint_path = self.directory / _CHECKPOINT_NAME
        self._wal: WriteAheadLog | None = None
        # -- counters --------------------------------------------------
        self.checkpoints = 0
        self.records_appended = 0

    # -- append path -----------------------------------------------------

    def _open_wal(self) -> WriteAheadLog:
        if self._wal is None:
            self._wal = WriteAheadLog(self.wal_path, fsync=self.fsync_policy)
        return self._wal

    def append(self, client_id: str, version: int, blob: bytes) -> None:
        """Make one enrollment durable (per the fsync policy)."""
        record = EnrollRecord(client_id, version, blob)
        self._open_wal().append(record.to_payload())
        self.records_appended += 1

    def sync(self) -> None:
        if self._wal is not None:
            self._wal.sync()

    # -- checkpoint ------------------------------------------------------

    def checkpoint(self, snapshot: bytes) -> None:
        """Atomically persist a snapshot, then reset the WAL.

        The snapshot is CRC-framed exactly like a WAL record so recovery
        can validate it with the same codec, and it reaches its final
        name only through an fsynced rename — a crash at any point
        leaves either the old checkpoint or the new one, never a hybrid.
        """
        frame = (
            WAL_HEADER.pack(WAL_MAGIC, len(snapshot), zlib.crc32(snapshot))
            + snapshot
        )
        tmp_path = self.checkpoint_path.with_suffix(".tmp")
        with open(tmp_path, "wb") as handle:
            handle.write(frame)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, self.checkpoint_path)
        self._fsync_directory()
        self._open_wal().reset()
        self.checkpoints += 1

    def _fsync_directory(self) -> None:
        fd = os.open(self.directory, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

    def _read_checkpoint(self) -> bytes | None:
        if not self.checkpoint_path.exists():
            return None
        data = self.checkpoint_path.read_bytes()
        if len(data) < WAL_HEADER.size:
            raise CheckpointCorrupt(self.checkpoint_path, "truncated header")
        magic, length, crc = WAL_HEADER.unpack_from(data)
        if magic != WAL_MAGIC:
            raise CheckpointCorrupt(self.checkpoint_path, "bad magic")
        payload = data[WAL_HEADER.size : WAL_HEADER.size + length]
        if len(payload) != length:
            raise CheckpointCorrupt(self.checkpoint_path, "truncated payload")
        if zlib.crc32(payload) != crc:
            raise CheckpointCorrupt(
                self.checkpoint_path, "failed its CRC-32 check"
            )
        return payload

    # -- recovery --------------------------------------------------------

    def recover(self) -> RecoveryResult:
        """Scan checkpoint + WAL; truncate a torn tail in place.

        Raises :class:`~repro.durability.errors.WalCorrupt` /
        :class:`~repro.durability.errors.CheckpointCorrupt` on mid-log
        or checkpoint damage. Call *before* the first :meth:`append`.
        """
        checkpoint = self._read_checkpoint()
        scan = scan_wal(self.wal_path)
        if scan.tail_was_torn:
            # Drop the unacknowledged torn append so the next write
            # starts on a clean frame boundary.
            with WriteAheadLog(self.wal_path, fsync=self.fsync_policy) as wal:
                wal.truncate_to(scan.valid_bytes)
                wal.sync()
        records = [EnrollRecord.from_payload(raw) for raw in scan.records]
        return RecoveryResult(
            checkpoint=checkpoint,
            records=records,
            torn_bytes_dropped=scan.torn_bytes,
            wal_bytes=scan.valid_bytes,
        )

    # -- lifecycle -------------------------------------------------------

    @property
    def wal_appends(self) -> int:
        return self._wal.appends if self._wal is not None else 0

    @property
    def wal_fsyncs(self) -> int:
        return self._wal.fsyncs if self._wal is not None else 0

    @property
    def wal_size_bytes(self) -> int:
        return self._wal.size_bytes if self._wal is not None else 0

    def counters(self) -> dict[str, int]:
        return {
            "wal_appends": self.wal_appends,
            "wal_fsyncs": self.wal_fsyncs,
            "wal_size_bytes": self.wal_size_bytes,
            "checkpoints": self.checkpoints,
            "records_appended": self.records_appended,
        }

    def close(self) -> None:
        if self._wal is not None:
            self._wal.close()
            self._wal = None

    def __enter__(self) -> "StoreLog":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()
