"""Property-based tests (hypothesis) on the core data structures.

These check invariants over generated inputs: conversion round trips,
hash equivalences, combinatorial identities, iterator contracts, and the
search's find-anything-planted property.
"""

import hashlib

import numpy as np
from hypothesis import given, settings, strategies as st

from repro._bitutils import (
    SEED_BITS,
    flip_bits,
    hamming_distance,
    int_to_seed,
    positions_to_mask_int,
    seed_to_int,
    seed_to_words,
    seeds_to_words,
    words_to_seed,
    words_to_seeds,
)
from repro.combinatorics.binomial import binomial
from repro.combinatorics.algorithm382 import minimal_change_sequence
from repro.combinatorics.ranking import (
    rank_lexicographic,
    unrank_lexicographic_batch,
    unrank_lexicographic_exact,
)
from repro.hashes.sha1 import sha1
from repro.hashes.sha256 import sha256
from repro.hashes.sha3 import sha3_256
from repro.keygen.aes import AES128
from repro.puf.image_db import EncryptedImageDatabase
from repro.puf.ternary import TernaryMask

seeds_strategy = st.binary(min_size=32, max_size=32)
messages_strategy = st.binary(min_size=0, max_size=300)


class TestBitutilProperties:
    @given(seeds_strategy)
    def test_int_roundtrip(self, seed):
        assert int_to_seed(seed_to_int(seed)) == seed

    @given(seeds_strategy)
    def test_words_roundtrip(self, seed):
        assert words_to_seed(seed_to_words(seed)) == seed

    @given(st.lists(seeds_strategy, min_size=1, max_size=20))
    def test_batch_words_roundtrip(self, seeds):
        assert words_to_seeds(seeds_to_words(seeds)) == seeds

    @given(seeds_strategy, st.sets(st.integers(0, SEED_BITS - 1), min_size=0, max_size=10))
    def test_flip_bits_sets_exact_distance(self, seed, positions):
        flipped = flip_bits(seed, positions)
        assert hamming_distance(seed, flipped) == len(positions)

    @given(st.sets(st.integers(0, SEED_BITS - 1), min_size=1, max_size=8))
    def test_mask_popcount(self, positions):
        assert positions_to_mask_int(positions).bit_count() == len(positions)

    @given(seeds_strategy, seeds_strategy)
    def test_hamming_symmetry(self, a, b):
        assert hamming_distance(a, b) == hamming_distance(b, a)

    @given(seeds_strategy, seeds_strategy, seeds_strategy)
    def test_hamming_triangle_inequality(self, a, b, c):
        assert hamming_distance(a, c) <= hamming_distance(a, b) + hamming_distance(b, c)


class TestHashProperties:
    @given(messages_strategy)
    @settings(max_examples=40)
    def test_sha1_matches_hashlib(self, data):
        assert sha1(data) == hashlib.sha1(data).digest()

    @given(messages_strategy)
    @settings(max_examples=40)
    def test_sha256_matches_hashlib(self, data):
        assert sha256(data) == hashlib.sha256(data).digest()

    @given(messages_strategy)
    @settings(max_examples=40)
    def test_sha3_matches_hashlib(self, data):
        assert sha3_256(data) == hashlib.sha3_256(data).digest()

    @given(st.lists(seeds_strategy, min_size=1, max_size=12))
    @settings(max_examples=20)
    def test_batch_kernels_match_scalar(self, seeds):
        from repro.hashes.registry import get_hash

        words = seeds_to_words(seeds)
        for name in ("sha1", "sha256", "sha3-256"):
            algo = get_hash(name)
            batch = algo.hash_seeds_batch(words)
            for i, seed in enumerate(seeds):
                assert (batch[i] == algo.digest_to_words(algo.scalar(seed))).all()

    @given(
        st.lists(seeds_strategy, max_size=4),
        st.integers(0, 508),
        st.integers(0, 2**32 - 1),
        st.binary(max_size=103),
    )
    @settings(max_examples=25, deadline=None)
    def test_native_batch_matches_from_spec_kernels(
        self, edge_seeds, random_rows, rng_seed, suffix
    ):
        """Any batch (≤ 512 rows): native digests are the from-spec arrays."""
        from repro.hashes import native
        from repro.hashes.batch_sha3 import sha3_256_batch_seeds_suffixed
        from repro.hashes.registry import available_hashes, get_hash

        drawn = np.random.default_rng(rng_seed).integers(
            0, 1 << 64, size=(random_rows, 4), dtype=np.uint64
        )
        words = np.concatenate([seeds_to_words(edge_seeds), drawn])
        for name in available_hashes():
            algo = get_hash(name)
            expected = algo.batch(words)
            got = native.digest_batch(name, words)
            assert got.dtype == expected.dtype and got.shape == expected.shape
            assert (got == expected).all()
            assert (algo.hash_seeds_batch(words) == expected).all()
        assert (
            native.digest_batch("sha3-256", words, suffix)
            == sha3_256_batch_seeds_suffixed(words, suffix)
        ).all()


class TestCipherProperties:
    @given(
        st.binary(min_size=16, max_size=16),
        st.binary(min_size=8, max_size=8),
        st.binary(min_size=0, max_size=2048),
    )
    @settings(max_examples=60, deadline=None)
    def test_ctr_kernel_matches_scalar_blocks(self, key, nonce, data):
        """Vectorized CTR == data XOR per-block ``encrypt_block`` output."""
        cipher = AES128(key)
        keystream = b"".join(
            cipher.encrypt_block(nonce + i.to_bytes(8, "big"))
            for i in range(-(-len(data) // 16))
        )
        expected = bytes(d ^ k for d, k in zip(data, keystream))
        assert cipher.ctr_transform(data, nonce) == expected
        assert cipher.ctr_transform(expected, nonce) == data


class TestImageRecordProperties:
    @given(
        st.integers(1, 8192),
        st.integers(0, 2**63) | st.just(2**64 - 1),
        st.integers(0, 3),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_enroll_lookup_is_bit_exact(self, cells, address, re_enrolls, seed):
        """Any cell count (byte-aligned or not), address and version, and
        any float64 bit pattern — NaNs and subnormals included — comes
        back field for field, bit for bit."""
        rng = np.random.default_rng(seed)
        mask = TernaryMask(
            address=address,
            usable=rng.random(cells) < 0.9,
            reference=rng.integers(0, 2, cells, dtype=np.uint8),
            instability=rng.integers(0, 2**64, cells, dtype=np.uint64).view(float),
        )
        db = EncryptedImageDatabase(b"property-key-16!")
        for _ in range(re_enrolls + 1):
            db.enroll("alice", mask)
        assert db.version_of("alice") == re_enrolls
        assert len(db.encrypted_record("alice")) == 16 + 2 * -(-cells // 8) + 8 * cells
        loaded = db.lookup("alice")
        assert loaded.address == address
        for name in ("usable", "reference", "instability"):
            got, want = getattr(loaded, name), getattr(mask, name)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()


class TestCombinatoricProperties:
    @given(st.integers(1, 12), st.data())
    @settings(max_examples=40)
    def test_unrank_rank_inverse(self, n, data):
        k = data.draw(st.integers(1, n))
        rank = data.draw(st.integers(0, binomial(n, k) - 1))
        combo = unrank_lexicographic_exact(n, k, rank)
        assert rank_lexicographic(n, combo) == rank

    @given(st.integers(1, 10), st.data())
    @settings(max_examples=25)
    def test_batch_unrank_matches_exact(self, n, data):
        k = data.draw(st.integers(1, n))
        total = binomial(n, k)
        ranks = data.draw(
            st.lists(st.integers(0, total - 1), min_size=1, max_size=20)
        )
        batch = unrank_lexicographic_batch(n, k, np.array(ranks, dtype=np.uint64))
        for row, rank in zip(batch, ranks):
            assert tuple(row) == unrank_lexicographic_exact(n, k, rank)

    @given(st.integers(1, 9), st.data())
    @settings(max_examples=25)
    def test_minimal_change_is_gray_code(self, n, data):
        k = data.draw(st.integers(1, n))
        seq = list(minimal_change_sequence(n, k))
        assert len(seq) == binomial(n, k)
        assert len(set(seq)) == len(seq)
        for a, b in zip(seq, seq[1:]):
            assert len(set(a) ^ set(b)) == 2


class TestSearchProperties:
    @given(
        seeds_strategy,
        st.sets(st.integers(0, SEED_BITS - 1), min_size=0, max_size=2),
    )
    @settings(max_examples=15, deadline=None)
    def test_search_finds_any_planted_seed_within_d2(self, base, positions):
        """The headline invariant: every seed within distance 2 is found."""
        from repro.runtime.executor import BatchSearchExecutor

        client_seed = flip_bits(base, positions)
        executor = BatchSearchExecutor("sha1", batch_size=16384)
        result = executor.search(base, sha1(client_seed), 2)
        assert result.found
        assert result.seed == client_seed
        assert result.distance == len(positions)

    @given(seeds_strategy, st.integers(0, SEED_BITS - 1))
    @settings(max_examples=10, deadline=None)
    def test_salting_never_silently_identity(self, seed, shift_source):
        """The protocol must never key-generate from the searched seed:
        a salt either transforms the seed or refuses (rotation degenerates
        on rotation-symmetric seeds, e.g. all-zeros — hypothesis found
        this edge, and RotateSalt must raise there rather than pass the
        seed through)."""
        import pytest

        from repro.core.salting import HashChainSalt, RotateSalt

        shift = (shift_source % 255) + 1
        rotate = RotateSalt(shift)
        try:
            assert rotate(seed) != seed
        except ValueError:
            # Refusal is acceptable; silent identity is not.
            assert rotate.apply(seed) == seed
        assert HashChainSalt()(seed) != seed
