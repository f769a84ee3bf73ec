"""Crash-consistent durability for the enrollment state.

PR 6 made CTR-nonce safety depend on a per-record re-enrollment version
counter; this package makes that counter (and every enrollment record)
survive ``kill -9``:

* :mod:`repro.durability.wal` — CRC-framed append-only write-ahead log
  with configurable fsync policy and torn-tail-aware scanning;
* :mod:`repro.durability.log` — the store's :class:`StoreLog`: WAL plus
  atomic encrypted checkpoints, and the recovery pass that loads the
  latest checkpoint, replays the log version-monotonically, truncates a
  torn tail, and refuses mid-log damage with a typed
  :class:`~repro.durability.errors.WalCorrupt`;
* :mod:`repro.durability.store` — :class:`DurableImageStore`, the
  drop-in WAL-backed :class:`~repro.puf.image_db.EncryptedImageDatabase`
  a server recovers from before announcing readiness.

The recovery invariant: the restored version counter for every client
is >= the last durable version, enforced end-to-end by the nonce-reuse
tripwire (:class:`~repro.puf.image_db.NonceReuseError`).
"""

from repro.durability.errors import (
    CheckpointCorrupt,
    DurabilityError,
    WalCorrupt,
)
from repro.durability.log import (
    EnrollRecord,
    RecoveryResult,
    StoreLog,
    replay_into,
)
from repro.durability.store import DurableImageStore
from repro.durability.wal import (
    FsyncPolicy,
    WalScan,
    WriteAheadLog,
    scan_wal,
)

__all__ = [
    "DurabilityError",
    "WalCorrupt",
    "CheckpointCorrupt",
    "FsyncPolicy",
    "WriteAheadLog",
    "WalScan",
    "scan_wal",
    "StoreLog",
    "EnrollRecord",
    "RecoveryResult",
    "replay_into",
    "DurableImageStore",
]
