"""Crash-consistent durability: WAL framing, recovery, nonce safety.

Covers the CRC-framed write-ahead log (append/scan round-trips, the
torn-tail-vs-mid-log-corruption discrimination, a fuzz sweep that
truncates and bit-flips the log at arbitrary byte offsets), atomic
checkpoints with version-monotonic replay, the CTR nonce-reuse tripwire
in the encrypted store, the :class:`DurableImageStore` kill-9 contract
(acknowledged enrollments survive a reopen at their version or higher),
and a rule-based state machine that drives that store through
enrollments, refused appends, crashes and checkpoints against a model.
"""

from __future__ import annotations

import errno
import json
import shutil
import tempfile
import zlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.durability import (
    DurableImageStore,
    EnrollRecord,
    FsyncPolicy,
    StoreLog,
    WalCorrupt,
    WriteAheadLog,
    replay_into,
    scan_wal,
)
from repro.durability.wal import WAL_HEADER, WAL_MAGIC, encode_wal_record
from repro.puf.image_db import EncryptedImageDatabase, NonceReuseError
from repro.puf.ternary import TernaryMask

KEY = b"durability-key!!"


def synthetic_mask(seed: int, cells: int = 256) -> TernaryMask:
    rng = np.random.default_rng(seed)
    return TernaryMask(
        address=0,
        usable=rng.random(cells) > 0.03,
        reference=(rng.random(cells) > 0.5),
        instability=np.zeros(cells),
    )


class TestFsyncPolicy:
    def test_parse_tokens(self):
        assert FsyncPolicy.parse("always").mode == "always"
        assert FsyncPolicy.parse("none").mode == "none"
        policy = FsyncPolicy.parse("interval:0.2")
        assert policy.mode == "interval"
        assert policy.interval_seconds == 0.2
        assert FsyncPolicy.parse("interval").describe().startswith("interval:")

    def test_bad_tokens_are_rejected(self):
        with pytest.raises(ValueError):
            FsyncPolicy.parse("sometimes")
        with pytest.raises(ValueError):
            FsyncPolicy.parse("interval:-1")


class TestWalScan:
    def _write(self, path, payloads):
        with WriteAheadLog(path, fsync=FsyncPolicy(mode="none")) as wal:
            for payload in payloads:
                wal.append(payload)

    def test_round_trip(self, tmp_path):
        path = tmp_path / "wal.log"
        payloads = [f"record-{i}".encode() * (i + 1) for i in range(20)]
        self._write(path, payloads)
        scan = scan_wal(path)
        assert scan.records == payloads
        assert not scan.tail_was_torn

    def test_missing_file_scans_empty(self, tmp_path):
        scan = scan_wal(tmp_path / "absent.log")
        assert scan.records == []
        assert scan.valid_bytes == 0

    def test_torn_tail_is_truncated_not_fatal(self, tmp_path):
        path = tmp_path / "wal.log"
        payloads = [b"alpha" * 10, b"beta" * 10, b"gamma" * 10]
        self._write(path, payloads)
        data = path.read_bytes()
        # Cut mid-way through the final record's payload.
        path.write_bytes(data[: len(data) - 7])
        scan = scan_wal(path)
        assert scan.records == payloads[:2]
        assert scan.tail_was_torn

    def test_final_record_crc_damage_is_torn(self, tmp_path):
        path = tmp_path / "wal.log"
        payloads = [b"alpha" * 10, b"omega" * 10]
        self._write(path, payloads)
        data = bytearray(path.read_bytes())
        data[-3] ^= 0x40  # garble the last record's payload
        path.write_bytes(bytes(data))
        scan = scan_wal(path)
        assert scan.records == payloads[:1]
        assert scan.tail_was_torn

    def test_midlog_crc_damage_is_corruption(self, tmp_path):
        path = tmp_path / "wal.log"
        self._write(path, [b"alpha" * 10, b"omega" * 10])
        data = bytearray(path.read_bytes())
        data[WAL_HEADER.size + 2] ^= 0x01  # inside the *first* payload
        path.write_bytes(bytes(data))
        with pytest.raises(WalCorrupt):
            scan_wal(path)

    def test_bad_magic_is_corruption(self, tmp_path):
        path = tmp_path / "wal.log"
        frame = encode_wal_record(b"fine")
        path.write_bytes(b"XX" + frame[2:] + frame)
        with pytest.raises(WalCorrupt):
            scan_wal(path)

    def test_implausible_length_is_corruption(self, tmp_path):
        path = tmp_path / "wal.log"
        header = WAL_HEADER.pack(WAL_MAGIC, 1 << 30, zlib.crc32(b""))
        path.write_bytes(header + b"\x00" * 64 + encode_wal_record(b"x"))
        with pytest.raises(WalCorrupt):
            scan_wal(path)

    def test_fuzz_truncate_at_every_offset(self, tmp_path):
        """A crash can stop the final write at ANY byte. Recovery must
        always yield a strict prefix of the appended records."""
        path = tmp_path / "wal.log"
        payloads = [f"payload-{i}".encode() * 3 for i in range(6)]
        self._write(path, payloads)
        pristine = path.read_bytes()
        for cut in range(len(pristine)):
            path.write_bytes(pristine[:cut])
            scan = scan_wal(path)
            assert scan.records == payloads[: len(scan.records)]
            assert scan.valid_bytes + scan.torn_bytes == cut

    def test_fuzz_bitflip_at_every_offset(self, tmp_path):
        """A single flipped bit anywhere yields a prefix or WalCorrupt —
        never a fabricated or reordered record."""
        path = tmp_path / "wal.log"
        payloads = [f"payload-{i}".encode() * 3 for i in range(4)]
        self._write(path, payloads)
        pristine = path.read_bytes()
        for offset in range(len(pristine)):
            mutated = bytearray(pristine)
            mutated[offset] ^= 0x10
            path.write_bytes(bytes(mutated))
            try:
                scan = scan_wal(path)
            except WalCorrupt:
                continue
            for got, expected in zip(scan.records, payloads):
                assert got == expected or offset > 0  # prefix only
            assert len(scan.records) <= len(payloads)
            # Whatever survived must be a prefix of the true history,
            # except possibly the record containing the flipped byte —
            # and that one can only survive if the flip was in its own
            # *header CRC field* making it torn, never silently wrong.
            for index, record in enumerate(scan.records):
                assert record == payloads[index]


class TestCheckpointAndReplay:
    def test_checkpoint_absorbs_and_resets_wal(self, tmp_path):
        log = StoreLog(tmp_path / "store", fsync=FsyncPolicy(mode="none"))
        store = EncryptedImageDatabase(KEY)
        store.enroll("alice", synthetic_mask(1))
        blob, version = store.export_record("alice")
        log.append("alice", version, blob)
        log.checkpoint(store.snapshot())
        result = log.recover()
        assert result.checkpoint is not None
        assert result.records == []  # WAL was reset by the checkpoint

        restored = EncryptedImageDatabase(KEY)
        restored.restore(result.checkpoint)
        assert restored.version_of("alice") == version
        log.close()

    def test_crash_between_rename_and_reset_is_idempotent(self, tmp_path):
        """Replaying records a newer checkpoint already absorbed must
        not regress the version counter."""
        store = EncryptedImageDatabase(KEY)
        store.enroll("alice", synthetic_mask(1))
        v1 = store.export_record("alice")
        store.enroll("alice", synthetic_mask(2))  # re-enroll bumps version
        v2 = store.export_record("alice")

        restored = EncryptedImageDatabase(KEY)
        restored.restore(store.snapshot())  # checkpoint holds v2
        stale = [EnrollRecord("alice", v1[1], v1[0])]
        replay_into(restored, stale)
        assert restored.version_of("alice") == v2[1]

    def test_replay_applies_newest_version(self, tmp_path):
        store = EncryptedImageDatabase(KEY)
        store.enroll("bob", synthetic_mask(3))
        b1, n1 = store.export_record("bob")
        store.enroll("bob", synthetic_mask(4))
        b2, n2 = store.export_record("bob")
        fresh = EncryptedImageDatabase(KEY)
        applied = replay_into(
            fresh, [EnrollRecord("bob", n1, b1), EnrollRecord("bob", n2, b2)]
        )
        assert applied == 2
        assert fresh.version_of("bob") == n2


class TestNonceReuseTripwire:
    def test_registered_version_blocks_reuse(self):
        store = EncryptedImageDatabase(KEY)
        store.register_used_version("alice", 3)
        with pytest.raises(NonceReuseError):
            # Enrolling from scratch would assign versions <= 3, whose
            # CTR keystreams already protect durable ciphertext.
            store.enroll("alice", synthetic_mask(1))
        assert store.nonce_reuse_trips == 1

    def test_normal_reenrollment_never_trips(self):
        store = EncryptedImageDatabase(KEY)
        for seed in range(5):
            store.enroll("alice", synthetic_mask(seed))
        assert store.nonce_reuse_trips == 0

    def test_recovery_raises_the_floor(self, tmp_path):
        first = DurableImageStore(tmp_path / "d", KEY, fsync="none")
        first.enroll("alice", synthetic_mask(1))
        first.enroll("alice", synthetic_mask(2))
        version = first.version_of("alice")
        first.close()

        reopened = DurableImageStore(tmp_path / "d", KEY, fsync="none")
        # The floor covers every durable version: the next enrollment
        # must mint a strictly newer nonce, never reuse one.
        reopened.enroll("alice", synthetic_mask(3))
        assert reopened.version_of("alice") == version + 1
        assert reopened.nonce_reuse_trips == 0
        reopened.close()


class TestDurableImageStore:
    def test_acknowledged_enrollments_survive_reopen(self, tmp_path):
        store = DurableImageStore(tmp_path / "db", KEY, fsync="always")
        masks = {f"client-{i}": synthetic_mask(i) for i in range(8)}
        for client_id, mask in masks.items():
            store.enroll(client_id, mask)
        versions = {c: store.version_of(c) for c in masks}
        store.close()  # no checkpoint: recovery must come from the WAL

        recovered = DurableImageStore(tmp_path / "db", KEY, fsync="always")
        assert recovered.recovery.recovered_records == len(masks)
        for client_id, mask in masks.items():
            assert recovered.version_of(client_id) >= versions[client_id]
            got = recovered.lookup(client_id)
            np.testing.assert_array_equal(got.reference, mask.reference)
        recovered.close()

    def test_a_failed_append_withdraws_the_install(self, tmp_path, monkeypatch):
        """A record whose log append raises is never served: the prior
        image and version are, a new client stays absent, and the next
        enrollment encrypts above the burnt version."""
        store = DurableImageStore(tmp_path / "db", KEY, fsync="always")
        store.enroll("a", synthetic_mask(1))
        version = store.version_of("a")
        peer = EncryptedImageDatabase(KEY)
        for seed in range(6):
            peer.enroll("a", synthetic_mask(seed))
        peer_blob, peer_version = peer.export_record("a")

        def disk_full(*_args):
            raise OSError(errno.ENOSPC, "No space left on device")

        with monkeypatch.context() as patch:
            patch.setattr(store._log, "append", disk_full)
            for refused in (
                lambda: store.enroll("a", synthetic_mask(2)),
                lambda: store.enroll("b", synthetic_mask(3)),
                lambda: store.import_record("a", peer_blob, peer_version),
                lambda: store.import_record("c", peer_blob, peer_version),
            ):
                with pytest.raises(OSError):
                    refused()
                served = store.lookup("a")
                np.testing.assert_array_equal(
                    served.reference, synthetic_mask(1).reference
                )
                assert store.version_of("a") == version
                assert "b" not in store and "c" not in store
                assert len(store) == 1

        store.enroll("a", synthetic_mask(4))
        assert store.version_of("a") == peer_version + 1
        assert store.nonce_reuse_trips == 0
        np.testing.assert_array_equal(
            store.lookup("a").reference, synthetic_mask(4).reference
        )
        store.close()

    def test_torn_tail_loses_only_the_unacknowledged_append(self, tmp_path):
        store = DurableImageStore(tmp_path / "db", KEY, fsync="none")
        store.enroll("alice", synthetic_mask(1))
        store.enroll("bob", synthetic_mask(2))
        store.close()
        wal_path = tmp_path / "db" / "wal.log"
        data = wal_path.read_bytes()
        wal_path.write_bytes(data[:-5])  # tear bob's record

        recovered = DurableImageStore(tmp_path / "db", KEY, fsync="none")
        assert "alice" in recovered
        assert "bob" not in recovered
        assert recovered.recovery.torn_bytes_dropped > 0
        recovered.close()

    def test_midlog_damage_refuses_to_open(self, tmp_path):
        store = DurableImageStore(tmp_path / "db", KEY, fsync="none")
        store.enroll("alice", synthetic_mask(1))
        store.enroll("bob", synthetic_mask(2))
        store.close()
        wal_path = tmp_path / "db" / "wal.log"
        data = bytearray(wal_path.read_bytes())
        data[WAL_HEADER.size + 4] ^= 0x01  # inside alice's payload
        wal_path.write_bytes(bytes(data))
        with pytest.raises(WalCorrupt):
            DurableImageStore(tmp_path / "db", KEY, fsync="none")

    def test_auto_checkpoint_compacts_the_wal(self, tmp_path):
        store = DurableImageStore(
            tmp_path / "db", KEY, fsync="none", checkpoint_every=4
        )
        for i in range(6):
            store.enroll(f"client-{i}", synthetic_mask(i))
        counters = store.counters()
        assert counters["checkpoints"] == 1
        store.close()
        recovered = DurableImageStore(tmp_path / "db", KEY, fsync="none")
        # 4 absorbed by the checkpoint, 2 replayed from the WAL.
        assert recovered.recovery.recovered_records == 2
        assert len(recovered) == 6
        recovered.close()

    def test_counters_surface_durability_telemetry(self, tmp_path):
        store = DurableImageStore(tmp_path / "db", KEY, fsync="always")
        store.enroll("alice", synthetic_mask(1))
        counters = store.counters()
        assert counters["wal_appends"] == 1
        assert counters["wal_fsyncs"] >= 1
        assert counters["nonce_reuse_trips"] == 0
        assert counters["recovery_seconds"] >= 0.0
        store.close()


    def test_a_lookup_does_not_decrypt_under_the_store_lock(self, tmp_path):
        """One look-up parked inside the cipher: the version counter, the
        membership test, a second look-up and an enrollment all still
        answer — only the copy of (record, version) is under the lock."""
        import threading

        store = DurableImageStore(tmp_path / "db", KEY, fsync="none")
        store.enroll("alice", synthetic_mask(1))
        store.enroll("bob", synthetic_mask(2))
        cipher = store._store._cipher
        entered, release = threading.Event(), threading.Event()

        class Gated:
            def ctr_transform(self, data, nonce):
                if threading.current_thread() is parked:
                    entered.set()
                    assert release.wait(30.0)
                return cipher.ctr_transform(data, nonce)

        store._store._cipher = Gated()
        parked = threading.Thread(target=store.lookup, args=("alice",))
        parked.start()
        answered = []

        def others():
            answered.append(store.version_of("alice"))
            answered.append("bob" in store)
            answered.append(store.lookup("bob").address)
            store.enroll("alice", synthetic_mask(3))
            answered.append(store.version_of("alice"))

        other = threading.Thread(target=others)
        try:
            assert entered.wait(30.0)
            other.start()
            other.join(10.0)
            stuck = other.is_alive()
        finally:
            release.set()
            parked.join(30.0)
            other.join(30.0)
            store.close()
        assert not stuck, "waited for the lock behind another look-up's decrypt"
        assert answered == [0, True, 0, 1]
        assert not parked.is_alive()


#: The clients the state machine enrolls.
MACHINE_CLIENTS = ("c0", "c1", "c2")


class DurableStoreMachine(RuleBasedStateMachine):
    """:class:`DurableImageStore` against a dict of what it acknowledged.

    The model holds, per client, the version and mask of its last
    acknowledged enrollment. Whatever the rules did before — enrollments,
    re-enrollments, appends refused before they wrote, crashes (the
    store dropped unclosed and reopened from its directory), checkpoints
    — the store serves exactly the model: no refused install, every
    acknowledged one at its version, versions rising per client, and the
    nonce-reuse tripwire never fires.
    """

    def __init__(self):
        super().__init__()
        self.data_dir = tempfile.mkdtemp(prefix="durable-machine-")
        self.store = self._open()
        #: client -> (acknowledged version, seed of its mask).
        self.acked: dict[str, tuple[int, int]] = {}
        self.masks_made = 0

    def _open(self) -> DurableImageStore:
        return DurableImageStore(
            self.data_dir, KEY, fsync="none", checkpoint_every=4
        )

    def _enroll(self, client_id: str) -> None:
        self.masks_made += 1
        self.store.enroll(client_id, synthetic_mask(self.masks_made))
        version = self.store.version_of(client_id)
        if client_id in self.acked:
            assert version > self.acked[client_id][0]
        self.acked[client_id] = (version, self.masks_made)

    @precondition(lambda self: len(self.acked) < len(MACHINE_CLIENTS))
    @rule(data=st.data())
    def enroll(self, data):
        new = [c for c in MACHINE_CLIENTS if c not in self.acked]
        self._enroll(data.draw(st.sampled_from(new)))

    @precondition(lambda self: self.acked)
    @rule(data=st.data())
    def re_enroll(self, data):
        self._enroll(data.draw(st.sampled_from(sorted(self.acked))))

    @rule(client_id=st.sampled_from(MACHINE_CLIENTS))
    def refused_append(self, client_id):
        self.masks_made += 1
        failure = OSError(errno.ENOSPC, "No space left on device")
        with mock.patch.object(self.store._log, "append", side_effect=failure):
            with pytest.raises(OSError):
                self.store.enroll(client_id, synthetic_mask(self.masks_made))

    @rule()
    def crash(self):
        self.store = self._open()

    @rule()
    def checkpoint(self):
        self.store.checkpoint()

    @invariant()
    def serves_exactly_what_was_acknowledged(self):
        assert len(self.store) == len(self.acked)
        for client_id in MACHINE_CLIENTS:
            if client_id not in self.acked:
                assert client_id not in self.store
                continue
            version, mask_seed = self.acked[client_id]
            assert self.store.version_of(client_id) == version
            np.testing.assert_array_equal(
                self.store.lookup(client_id).reference,
                synthetic_mask(mask_seed).reference,
            )
        assert self.store.nonce_reuse_trips == 0

    def teardown(self):
        self.store.close()
        shutil.rmtree(self.data_dir, ignore_errors=True)


DurableStoreMachine.TestCase.settings = settings(
    max_examples=40,
    stateful_step_count=25,
    derandomize=True,
    database=None,
    deadline=None,
)
TestDurableStoreMachine = DurableStoreMachine.TestCase
