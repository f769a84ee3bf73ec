"""Database persistence and the full configuration matrix."""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.core import (
    CertificateAuthority,
    RBCSaltedProtocol,
    RBCSearchService,
    RegistrationAuthority,
)
from repro.core.protocol import ClientDevice
from repro.core.salting import HashChainSalt
from repro.keygen.interface import get_keygen
from repro.puf.arbiter import ArbiterPuf
from repro.puf.image_db import EncryptedImageDatabase
from repro.puf.model import SRAMPuf
from repro.puf.ring_oscillator import RingOscillatorPuf
from repro.puf.ternary import TernaryMask, enroll_with_masking
from repro.runtime.executor import BatchSearchExecutor


class TestPersistence:
    @pytest.fixture
    def populated_db(self):
        puf = SRAMPuf(num_cells=512, seed=8)
        mask = enroll_with_masking(puf, 0, 512)
        db = EncryptedImageDatabase(b"persistence-key!")
        db.enroll("alice", mask)
        db.enroll("bob", mask)
        return db, mask

    def test_save_load_roundtrip(self, populated_db, tmp_path):
        db, mask = populated_db
        path = tmp_path / "images.db"
        db.save(path)
        restored = EncryptedImageDatabase.load(path, b"persistence-key!")
        assert len(restored) == 2
        loaded = restored.lookup("alice")
        assert (loaded.reference == mask.reference).all()

    def test_file_contents_stay_encrypted(self, populated_db, tmp_path):
        db, _mask = populated_db
        path = tmp_path / "images.db"
        db.save(path)
        raw = path.read_text()
        assert "reference" not in raw.split('"records"')[1]

    def test_wrong_key_cannot_read_loaded_db(self, populated_db, tmp_path):
        db, _mask = populated_db
        path = tmp_path / "images.db"
        db.save(path)
        wrong = EncryptedImageDatabase.load(path, b"other-master-key")
        with pytest.raises(Exception):
            wrong.lookup("alice")

    def test_unknown_format_rejected(self, tmp_path):
        path = tmp_path / "bad.db"
        path.write_text('{"format": "something-else", "records": {}}')
        with pytest.raises(ValueError):
            EncryptedImageDatabase.load(path, b"persistence-key!")

    def test_ca_survives_restart(self, populated_db, tmp_path):
        """Enrollment -> save -> 'reboot' -> load -> authenticate."""
        db, mask = populated_db
        path = tmp_path / "images.db"
        db.save(path)
        puf = SRAMPuf(num_cells=512, seed=8)  # the same physical chip
        restored = EncryptedImageDatabase.load(path, b"persistence-key!")
        authority = CertificateAuthority(
            search_service=RBCSearchService(
                BatchSearchExecutor("sha1", batch_size=8192), max_distance=2
            ),
            salt=HashChainSalt(),
            keygen=get_keygen("aes-128"),
            registration_authority=RegistrationAuthority(),
            image_db=restored,
            hash_name="sha1",
        )
        client = ClientDevice("alice", puf, rng=np.random.default_rng(0))
        outcome = RBCSaltedProtocol(authority).authenticate(
            client, reference_mask=mask
        )
        assert outcome.authenticated


PUF_BUILDERS = {
    "sram": lambda: SRAMPuf(num_cells=2048, stable_error=0.001, seed=5150),
    "arbiter": lambda: ArbiterPuf(num_cells=2048, seed=5150),
    "ring-osc": lambda: RingOscillatorPuf(num_cells=2048, seed=5150),
}


def assert_same_image(loaded, mask):
    assert loaded.address == mask.address
    assert (loaded.usable == mask.usable).all()
    assert (loaded.reference == mask.reference).all()
    assert (loaded.instability == mask.instability).all()


class TestSnapshotsWrittenBeforeTheVectorizedKernel:
    """tests/fixtures/image_db_snapshots.json holds `snapshot()` blobs the
    scalar per-block CTR loop wrote (see its `written_by`): a durable
    store from before the NumPy kernel must recover after it, and the
    kernel must write the very same bytes. `v1` / `v2` hold the JSON
    records of that time, which are read but no longer written; `v3` is
    the binary layout, which the writer must reproduce byte for byte."""

    @pytest.fixture(scope="class")
    def fixture(self):
        path = Path(__file__).parent / "fixtures" / "image_db_snapshots.json"
        return json.loads(path.read_text())

    @pytest.fixture(scope="class")
    def mask(self, fixture):
        image = fixture["mask"]
        return TernaryMask(
            address=image["address"],
            usable=np.array(image["usable"], dtype=bool),
            reference=np.array(image["reference"], dtype=np.uint8),
            instability=np.array(image["instability"], dtype=float),
        )

    # v1: version 0, the identifier-only nonce; v2, v3: the versioned nonce.
    @pytest.mark.parametrize("name", ["v1", "v2", "v3"])
    def test_restores_and_reproduces_the_ciphertext(self, fixture, mask, name):
        client_id = fixture["client_id"]
        version = fixture["snapshots"][name]["version"]
        snapshot = fixture["snapshots"][name]["snapshot"].encode()
        db = EncryptedImageDatabase.from_snapshot(
            snapshot, fixture["master_key"].encode()
        )
        assert db.version_of(client_id) == version
        loaded = db.lookup(client_id)
        assert loaded.address == mask.address
        assert (loaded.usable == mask.usable).all()
        assert (loaded.reference == mask.reference).all()
        assert (loaded.instability == mask.instability).all()
        ciphertext, exported_version = db.export_record(client_id)
        assert exported_version == version
        if name == "v3":
            assert db.encrypt_record(client_id, mask, version) == ciphertext
        else:
            # Re-encrypting the fixture's decrypted plaintext, the JSON
            # text the writer of the time produced, reproduces it.
            nonce = db._nonce(client_id, version)
            plaintext = db._cipher.ctr_transform(ciphertext, nonce)
            assert json.loads(plaintext)["address"] == mask.address
            assert db._cipher.ctr_transform(plaintext, nonce) == ciphertext
        assert db.snapshot() == snapshot

    @pytest.mark.parametrize("name", ["v1", "v2"])
    def test_a_store_serves_both_kinds_of_record(self, fixture, mask, name):
        """A JSON record is never re-encoded in place: it stays as stored
        until its client enrolls again, beside binary ones."""
        key = fixture["master_key"].encode()
        alice = fixture["client_id"]
        version = fixture["snapshots"][name]["version"]
        payload = json.loads(fixture["snapshots"][name]["snapshot"])
        if name == "v1":  # as a pre-versioning file held it
            payload = {"format": "repro-image-db/1", "records": payload["records"]}
        db = EncryptedImageDatabase.from_snapshot(json.dumps(payload).encode(), key)
        json_record = db.encrypted_record(alice)
        db.enroll("bob", mask)
        assert db.encrypted_record(alice) == json_record
        assert len(db.encrypted_record("bob")) < len(json_record)
        clone = EncryptedImageDatabase.from_snapshot(db.snapshot(), key)
        for store in (db, clone):
            for client_id in (alice, "bob"):
                assert_same_image(store.lookup(client_id), mask)
        # Re-enrolling is what turns alice's record binary, one version on.
        clone.enroll(alice, mask)
        assert clone.version_of(alice) == version + 1
        assert clone.encrypted_record(alice) == clone.encrypt_record(
            alice, mask, version + 1
        )
        assert_same_image(clone.lookup(alice), mask)

    def test_json_records_recover_from_a_wal_and_a_checkpoint(
        self, fixture, mask, tmp_path
    ):
        """The containers carry ciphertext and do not care which kind: a
        JSON record and a binary one come back from the WAL, and again
        from the checkpoint that compacts it, with versions and floor."""
        from repro.durability import DurableImageStore
        from repro.puf.image_db import NonceReuseError

        key = fixture["master_key"].encode()
        alice = fixture["client_id"]
        seed = EncryptedImageDatabase.from_snapshot(
            fixture["snapshots"]["v2"]["snapshot"].encode(), key
        )
        json_record, version = seed.export_record(alice)
        store = DurableImageStore(tmp_path / "db", key, fsync="none")
        store.import_record(alice, json_record, version)
        store.enroll("bob", mask)
        for compact in (False, True):
            if compact:
                store.checkpoint()
            store.close()
            store = DurableImageStore(tmp_path / "db", key, fsync="none")
            assert store.recovery.recovered_records == (0 if compact else 2)
            assert store.export_record(alice) == (json_record, version)
            assert store.version_of("bob") == 0
            for client_id in (alice, "bob"):
                assert_same_image(store.lookup(client_id), mask)
        # The floor came back too: a counter rolled back under it trips.
        store._store._versions[alice] = version - 1
        with pytest.raises(NonceReuseError):
            store.enroll(alice, mask)
        store.close()

    def test_pre_versioning_file_format_still_decrypts(self, fixture, mask):
        """The same version-0 ciphertext under the `/1` tag, no versions."""
        payload = json.loads(fixture["snapshots"]["v1"]["snapshot"])
        legacy = {"format": "repro-image-db/1", "records": payload["records"]}
        db = EncryptedImageDatabase.from_snapshot(
            json.dumps(legacy).encode(), fixture["master_key"].encode()
        )
        loaded = db.lookup(fixture["client_id"])
        assert (loaded.reference == mask.reference).all()
        assert (loaded.instability == mask.instability).all()


class TestConfigurationMatrix:
    """Every hash x keygen x PUF combination authenticates at d=1.

    The RBC-SALTED modularity claim, exercised exhaustively: the search
    is agnostic to the key generator, the hash is a configuration knob,
    and the PUF technology is invisible above the bit stream.
    """

    @pytest.mark.parametrize("hash_name", ["sha1", "sha256", "sha3-256", "sha512"])
    @pytest.mark.parametrize("keygen_name", ["aes-128", "speck-128", "chacha20"])
    @pytest.mark.parametrize("puf_kind", sorted(PUF_BUILDERS))
    def test_combination(self, hash_name, keygen_name, puf_kind):
        puf = PUF_BUILDERS[puf_kind]()
        mask = enroll_with_masking(
            puf, 0, 2048, reads=48, instability_threshold=0.02
        )
        authority = CertificateAuthority(
            search_service=RBCSearchService(
                BatchSearchExecutor(hash_name, batch_size=4096), max_distance=1
            ),
            salt=HashChainSalt(),
            keygen=get_keygen(keygen_name),
            registration_authority=RegistrationAuthority(),
            image_db=EncryptedImageDatabase(b"matrix-master-k."),
            hash_name=hash_name,
        )
        authority.enroll("m", mask)
        client = ClientDevice(
            "m", puf, noise_target_distance=1, rng=np.random.default_rng(1)
        )
        outcome = RBCSaltedProtocol(authority).authenticate(
            client, reference_mask=mask
        )
        assert outcome.authenticated, (hash_name, keygen_name, puf_kind)
        assert outcome.public_key is not None
