"""PUF substrate: statistical model, TAPKI masking, noise, encrypted DB."""

import dataclasses

import numpy as np
import pytest

from repro.puf.image_db import EncryptedImageDatabase
from repro.puf.model import SRAMPuf
from repro.puf.noise import flip_random_bits, inject_noise_to_distance
from repro.puf.ternary import TernaryMask, enroll_with_masking


class TestSRAMPuf:
    def test_reference_is_stable(self):
        puf = SRAMPuf(num_cells=1024, seed=1)
        a = puf.reference_bits(0, 256)
        b = puf.reference_bits(0, 256)
        assert (a == b).all()

    def test_reads_are_noisy_but_close(self):
        puf = SRAMPuf(num_cells=1024, seed=2)
        reference = puf.reference_bits(0, 1024)
        distances = [
            int((puf.read(0, 1024).bits != reference).sum()) for _ in range(20)
        ]
        assert max(distances) < 200          # errors are a small minority
        assert sum(distances) > 0            # but noise does occur

    def test_distinct_devices_have_distinct_fingerprints(self):
        a = SRAMPuf(num_cells=512, seed=10).reference_bits(0, 512)
        b = SRAMPuf(num_cells=512, seed=11).reference_bits(0, 512)
        # Independent random references differ in roughly half the cells.
        assert 150 < int((a != b).sum()) < 362

    def test_stable_fraction_controls_noise(self):
        noisy = SRAMPuf(num_cells=4096, stable_fraction=0.5, seed=3)
        quiet = SRAMPuf(num_cells=4096, stable_fraction=0.99, seed=3)
        assert noisy.flip_probability.mean() > quiet.flip_probability.mean()

    def test_window_validation(self):
        puf = SRAMPuf(num_cells=512, seed=0)
        with pytest.raises(ValueError):
            puf.read(500, 100)
        with pytest.raises(ValueError):
            puf.read(0, 0)

    def test_num_cells_multiple_of_8(self):
        with pytest.raises(ValueError):
            SRAMPuf(num_cells=100)

    def test_flip_probability_read_only(self):
        puf = SRAMPuf(num_cells=512, seed=0)
        with pytest.raises(ValueError):
            puf.flip_probability[0] = 0.5

    def test_readout_packing(self):
        puf = SRAMPuf(num_cells=512, seed=0)
        readout = puf.read(0, 256)
        packed = readout.to_bytes()
        assert len(packed) == 32
        assert (np.unpackbits(np.frombuffer(packed, np.uint8)) == readout.bits).all()

    def test_readout_packing_requires_multiple_of_8(self):
        puf = SRAMPuf(num_cells=512, seed=0)
        with pytest.raises(ValueError):
            puf.read(0, 10).to_bytes()


class TestTernaryMasking:
    def test_masks_erratic_cells(self):
        puf = SRAMPuf(num_cells=2048, stable_fraction=0.8, seed=4)
        mask = enroll_with_masking(puf, 0, 2048, reads=48, instability_threshold=0.05)
        usable_p = puf.flip_probability[mask.usable]
        masked_p = puf.flip_probability[~mask.usable]
        assert usable_p.mean() < masked_p.mean()

    def test_masked_selection_reduces_error_rate(self):
        puf = SRAMPuf(num_cells=4096, stable_fraction=0.85, seed=5)
        mask = enroll_with_masking(puf, 0, 4096, reads=48)
        reference = mask.reference_seed_bits(256)
        masked_dists = []
        for _ in range(20):
            bits = mask.select_bits(puf.read(0, 4096).bits, 256)
            masked_dists.append(int((bits != reference).sum()))
        assert np.mean(masked_dists) < 5  # tractable search region

    def test_select_bits_shape_validation(self):
        puf = SRAMPuf(num_cells=512, seed=6)
        mask = enroll_with_masking(puf, 0, 512)
        with pytest.raises(ValueError):
            mask.select_bits(np.zeros(100, dtype=np.uint8), 64)

    def test_select_bits_insufficient_cells(self):
        puf = SRAMPuf(num_cells=512, seed=6)
        mask = enroll_with_masking(puf, 0, 512)
        with pytest.raises(ValueError):
            mask.select_bits(puf.read(0, 512).bits, 10_000)

    def test_enrollment_needs_multiple_reads(self):
        puf = SRAMPuf(num_cells=512, seed=6)
        with pytest.raises(ValueError):
            enroll_with_masking(puf, 0, 512, reads=1)

    def test_instability_estimates_in_range(self):
        puf = SRAMPuf(num_cells=512, seed=7)
        mask = enroll_with_masking(puf, 0, 512, reads=32)
        assert (mask.instability >= 0).all() and (mask.instability <= 0.5).all()


class TestNoiseInjection:
    def test_reaches_exact_target(self, rng):
        reference = rng.integers(0, 2, 256, dtype=np.uint8)
        client = reference.copy()
        noisy = inject_noise_to_distance(client, reference, 5, rng)
        assert int((noisy != reference).sum()) == 5

    def test_tops_up_partial_noise(self, rng):
        reference = rng.integers(0, 2, 256, dtype=np.uint8)
        client = reference.copy()
        client[[3, 10]] ^= 1
        noisy = inject_noise_to_distance(client, reference, 5, rng)
        assert int((noisy != reference).sum()) == 5
        assert (noisy[[3, 10]] != reference[[3, 10]]).all()  # keeps old errors

    def test_leaves_excess_noise_alone(self, rng):
        reference = rng.integers(0, 2, 256, dtype=np.uint8)
        client = reference.copy()
        client[:7] ^= 1
        noisy = inject_noise_to_distance(client, reference, 5, rng)
        assert (noisy == client).all()

    def test_shape_mismatch(self, rng):
        with pytest.raises(ValueError):
            inject_noise_to_distance(
                np.zeros(10, np.uint8), np.zeros(12, np.uint8), 2, rng
            )

    def test_flip_random_bits_count(self, rng):
        bits = np.zeros(64, dtype=np.uint8)
        flipped = flip_random_bits(bits, 9, rng)
        assert int(flipped.sum()) == 9

    def test_flip_random_bits_validation(self, rng):
        with pytest.raises(ValueError):
            flip_random_bits(np.zeros(4, np.uint8), 5, rng)
        with pytest.raises(ValueError):
            flip_random_bits(np.zeros(4, np.uint8), -1, rng)


class TestEncryptedImageDatabase:
    @pytest.fixture
    def mask(self):
        puf = SRAMPuf(num_cells=512, seed=8)
        return enroll_with_masking(puf, 0, 512)

    def test_roundtrip(self, mask):
        db = EncryptedImageDatabase(b"k" * 16)
        db.enroll("alice", mask)
        restored = db.lookup("alice")
        assert restored.address == mask.address
        assert (restored.usable == mask.usable).all()
        assert (restored.reference == mask.reference).all()
        assert np.allclose(restored.instability, mask.instability)

    def test_records_are_encrypted_at_rest(self, mask):
        db = EncryptedImageDatabase(b"k" * 16)
        db.enroll("alice", mask)
        ciphertext = db.encrypted_record("alice")
        assert np.packbits(mask.reference).tobytes() not in ciphertext
        assert np.packbits(mask.usable).tobytes() not in ciphertext

    def test_unknown_client(self):
        db = EncryptedImageDatabase(b"k" * 16)
        with pytest.raises(KeyError):
            db.lookup("mallory")

    def test_contains_and_len(self, mask):
        db = EncryptedImageDatabase(b"k" * 16)
        assert "alice" not in db and len(db) == 0
        db.enroll("alice", mask)
        assert "alice" in db and len(db) == 1

    def test_master_key_length(self):
        with pytest.raises(ValueError):
            EncryptedImageDatabase(b"short")

    def test_wrong_key_cannot_decrypt(self, mask):
        db1 = EncryptedImageDatabase(b"k" * 16)
        db1.enroll("alice", mask)
        db2 = EncryptedImageDatabase(b"x" * 16)
        db2._records["alice"] = db1.encrypted_record("alice")
        with pytest.raises(Exception):
            db2.lookup("alice")


class _CountingCipher:
    """Stands in for a store's cipher and counts the bytes it transforms."""

    def __init__(self, inner):
        self.inner = inner
        self.bytes = 0

    def ctr_transform(self, data, nonce):
        self.bytes += len(data)
        return self.inner.ctr_transform(data, nonce)


class TestSeekableRecordLayout:
    """The record layout of ``puf/image_db.py``: what a handshake and a
    digest leg read sits in the leading blocks, and only those are
    decrypted until something reads ``instability``."""

    @pytest.fixture
    def mask(self):
        # The deployed topology's image: one 2 048-cell window.
        puf = SRAMPuf(num_cells=2048, seed=8)
        return enroll_with_masking(puf, 0, 2048)

    def test_lookup_decrypts_the_leading_blocks_only(self, mask):
        db = EncryptedImageDatabase(b"k" * 16)
        db.enroll("alice", mask)
        record = len(db.encrypted_record("alice"))
        assert record == 16 + 256 + 256 + 8 * 2048  # was 22 821 of JSON
        counter = db._cipher = _CountingCipher(db._cipher)
        restored = db.lookup("alice")
        assert (restored.usable == mask.usable).all()
        assert (restored.reference == mask.reference).all()
        assert counter.bytes <= 544
        # The cold tail costs at most the record once more, and once.
        assert restored.instability.tobytes() == mask.instability.tobytes()
        assert counter.bytes <= 544 + record
        spent = counter.bytes
        assert (restored.instability == mask.instability).all()
        assert counter.bytes == spent

    def test_both_protocol_legs_decrypt_two_leading_spans(self, mask):
        """One authentication = a challenge and an S_init read."""
        from repro.core import (
            CertificateAuthority,
            RBCSearchService,
            RegistrationAuthority,
        )
        from repro.core.salting import HashChainSalt
        from repro.keygen.interface import get_keygen
        from repro.runtime.executor import BatchSearchExecutor

        db = EncryptedImageDatabase(b"k" * 16)
        authority = CertificateAuthority(
            search_service=RBCSearchService(BatchSearchExecutor("sha3-256")),
            salt=HashChainSalt(),
            keygen=get_keygen("aes-128"),
            registration_authority=RegistrationAuthority(),
            image_db=db,
        )
        authority.enroll("alice", mask)
        counter = db._cipher = _CountingCipher(db._cipher)
        challenge = authority.issue_challenge("alice")
        assert (challenge.usable == mask.usable).all()
        assert authority.enrolled_seed("alice") == np.packbits(
            mask.reference_seed_bits(256)
        ).tobytes()
        assert counter.bytes <= 2 * 544  # was 2 x 22 821

    def test_what_lookup_returns_is_a_ternary_mask(self, mask):
        db = EncryptedImageDatabase(b"k" * 16)
        db.enroll("alice", mask)
        restored = db.lookup("alice")
        assert isinstance(restored, TernaryMask)
        assert restored.usable.dtype == bool
        assert restored.reference.dtype == np.uint8
        assert restored.instability.dtype == mask.instability.dtype
        assert restored.usable_count == mask.usable_count
        moved = dataclasses.replace(db.lookup("alice"), address=7)
        assert moved.address == 7
        assert (moved.instability == mask.instability).all()
        fields = dataclasses.asdict(db.lookup("alice"))
        assert list(fields) == ["address", "usable", "reference", "instability"]
        assert (fields["instability"] == mask.instability).all()
        assert repr(db.lookup("alice")) == repr(mask)
        # Array fields compare by truth value, so `==` needs a one-cell image.
        cell = TernaryMask(3, np.array([True]), np.array([1], np.uint8),
                           np.array([0.25]))
        db.enroll("bob", cell)
        assert db.lookup("bob") == cell and cell == db.lookup("bob")
        assert db.lookup("bob") == db.lookup("bob")
        assert db.lookup("bob") != dataclasses.replace(cell, address=4)

    @pytest.mark.parametrize("cells", [0, 1, 7, 8, 9, 65, 2047])
    def test_cell_counts_off_the_byte_boundary(self, cells):
        rng = np.random.default_rng(cells)
        image = TernaryMask(
            address=(1 << 64) - 1,
            usable=rng.random(cells) < 0.9,
            reference=rng.integers(0, 2, cells, dtype=np.uint8),
            instability=rng.random(cells),
        )
        db = EncryptedImageDatabase(b"k" * 16)
        restored = db.decrypt_record("a", db.encrypt_record("a", image, 3), 3)
        assert restored.address == image.address
        assert (restored.usable == image.usable).all()
        assert (restored.reference == image.reference).all()
        assert restored.instability.tobytes() == image.instability.tobytes()

    @pytest.mark.parametrize(
        "damage",
        [
            pytest.param(lambda blob: blob[:-5], id="cut mid-field"),
            pytest.param(lambda blob: blob[:-66], id="cut to another cell count"),
            pytest.param(lambda blob: blob[:300], id="cut inside the leading span"),
            pytest.param(lambda blob: blob[:9], id="cut inside the header"),
            pytest.param(lambda blob: b"", id="empty"),
            pytest.param(lambda blob: blob + bytes(66), id="grown by eight cells"),
            pytest.param(lambda blob: blob + b"\x00", id="grown by a byte"),
        ],
    )
    def test_damaged_ciphertext_raises(self, mask, damage):
        db = EncryptedImageDatabase(b"k" * 16)
        blob = db.encrypt_record("alice", mask, 1)
        with pytest.raises(ValueError):
            db.decrypt_record("alice", damage(blob), 1)

    @pytest.mark.parametrize(
        "client_id, version, key",
        [
            pytest.param("alice", 1, b"x" * 16, id="wrong key"),
            pytest.param("alice", 2, b"k" * 16, id="wrong version"),
            pytest.param("bob", 1, b"k" * 16, id="another client"),
        ],
    )
    def test_foreign_ciphertext_raises(self, mask, client_id, version, key):
        blob = EncryptedImageDatabase(b"k" * 16).encrypt_record("alice", mask, 1)
        with pytest.raises(ValueError):
            EncryptedImageDatabase(key).decrypt_record(client_id, blob, version)

    def test_enroll_refuses_what_the_layout_cannot_hold(self, mask):
        db = EncryptedImageDatabase(b"k" * 16)
        db.enroll("alice", mask)
        before = db.export_record("alice")
        for address in (-1, 1 << 64):
            with pytest.raises(ValueError):
                db.enroll("alice", dataclasses.replace(mask, address=address))
        with pytest.raises(ValueError):
            db.enroll("alice", dataclasses.replace(mask, reference=mask.reference + 1))
        with pytest.raises(ValueError):
            db.enroll("alice", dataclasses.replace(mask, usable=mask.usable[:-1]))
        # A refused enrollment burns no version and changes no record.
        assert db.export_record("alice") == before
        db.enroll("alice", dataclasses.replace(mask, address=(1 << 64) - 1))
        assert db.version_of("alice") == 1
        assert db.lookup("alice").address == (1 << 64) - 1


class TestImageDatabaseVersionedNonces:
    """CTR nonce-reuse regression: the nonce must rotate with re-enrollment."""

    @pytest.fixture
    def mask(self):
        puf = SRAMPuf(num_cells=512, seed=8)
        return enroll_with_masking(puf, 0, 512)

    def test_re_enroll_rotates_the_keystream(self, mask):
        # With a version-blind nonce, re-enrolling the same plaintext
        # yields the identical ciphertext (and two different plaintexts
        # leak their XOR). The versioned nonce makes both enrollments
        # encrypt under distinct keystreams.
        db = EncryptedImageDatabase(b"k" * 16)
        db.enroll("alice", mask)
        first = db.encrypted_record("alice")
        db.enroll("alice", mask)
        second = db.encrypted_record("alice")
        assert first != second
        assert db.version_of("alice") == 1
        restored = db.lookup("alice")
        assert (restored.reference == mask.reference).all()

    def test_stateless_codec_is_pure_and_version_sensitive(self, mask):
        db = EncryptedImageDatabase(b"k" * 16)
        v0 = db.encrypt_record("alice", mask, 0)
        assert db.encrypt_record("alice", mask, 0) == v0  # deterministic
        assert db.encrypt_record("alice", mask, 1) != v0  # nonce rotated
        assert len(db) == 0  # the codec never touches the store
        restored = db.decrypt_record("alice", v0, 0)
        assert (restored.reference == mask.reference).all()

    def test_codec_rejects_negative_versions(self, mask):
        db = EncryptedImageDatabase(b"k" * 16)
        with pytest.raises(ValueError):
            db.encrypt_record("alice", mask, -1)
        with pytest.raises(ValueError):
            db.decrypt_record("alice", b"\x00", -1)
        with pytest.raises(ValueError):
            db.import_record("alice", b"\x00", -1)

    def test_export_import_is_portable_between_stores(self, mask):
        source = EncryptedImageDatabase(b"k" * 16)
        source.enroll("alice", mask)
        source.enroll("alice", mask)  # bump to version 1
        blob, version = source.export_record("alice")
        peer = EncryptedImageDatabase(b"k" * 16)
        peer.import_record("alice", blob, version)
        assert peer.version_of("alice") == 1
        restored = peer.lookup("alice")
        assert (restored.usable == mask.usable).all()

    def test_snapshot_restore_keeps_versions_and_ciphertext(self, mask):
        db = EncryptedImageDatabase(b"k" * 16)
        db.enroll("alice", mask)
        db.enroll("alice", mask)
        clone = EncryptedImageDatabase.from_snapshot(db.snapshot(), b"k" * 16)
        assert clone.version_of("alice") == 1
        assert clone.encrypted_record("alice") == db.encrypted_record("alice")
        restored = clone.lookup("alice")
        assert (restored.reference == mask.reference).all()

    def test_snapshot_stays_encrypted_and_keyless(self, mask):
        db = EncryptedImageDatabase(b"k" * 16)
        db.enroll("alice", mask)
        snapshot = db.snapshot()
        assert b"reference" not in snapshot
        assert (b"k" * 16) not in snapshot

    def test_legacy_v1_snapshot_loads_at_version_zero(self, mask):
        import json

        db = EncryptedImageDatabase(b"k" * 16)
        legacy_blob = db.encrypt_record("alice", mask, 0)
        legacy = json.dumps(
            {
                "format": "repro-image-db/1",
                "records": {"alice": legacy_blob.hex()},
            }
        ).encode()
        db.restore(legacy)
        assert db.version_of("alice") == 0
        restored = db.lookup("alice")
        assert (restored.reference == mask.reference).all()

    def test_unrecognized_snapshot_format_is_rejected(self):
        import json

        db = EncryptedImageDatabase(b"k" * 16)
        bogus = json.dumps({"format": "repro-image-db/99", "records": {}})
        with pytest.raises(ValueError):
            db.restore(bogus.encode())
