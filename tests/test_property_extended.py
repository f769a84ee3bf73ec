"""Property-based tests for the extension modules (hypothesis)."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.hashes.hmac import hmac_digest, hmac_verify
from repro.keygen.aes import AES128
from repro.keygen.batch_aes import aes128_encrypt_batch
from repro.keygen.batch_chacha20 import chacha20_block_batch
from repro.keygen.batch_speck import speck128_encrypt_batch
from repro.keygen.chacha20 import chacha20_block
from repro.keygen.speck import Speck128

block16 = st.binary(min_size=16, max_size=16)
key32 = st.binary(min_size=32, max_size=32)


class TestBatchCipherEquivalence:
    @given(st.lists(st.tuples(block16, block16), min_size=1, max_size=8))
    @settings(max_examples=25, deadline=None)
    def test_batch_aes_equals_scalar(self, pairs):
        keys = np.frombuffer(b"".join(k for k, _ in pairs), np.uint8).reshape(-1, 16)
        pts = np.frombuffer(b"".join(p for _, p in pairs), np.uint8).reshape(-1, 16)
        cts = aes128_encrypt_batch(keys, pts)
        for i, (k, p) in enumerate(pairs):
            assert cts[i].tobytes() == AES128(k).encrypt_block(p)

    @given(st.lists(st.tuples(block16, block16), min_size=1, max_size=8))
    @settings(max_examples=25, deadline=None)
    def test_batch_speck_equals_scalar(self, pairs):
        keys = np.frombuffer(b"".join(k for k, _ in pairs), np.uint8).reshape(-1, 16)
        pts = np.frombuffer(b"".join(p for _, p in pairs), np.uint8).reshape(-1, 16)
        cts = speck128_encrypt_batch(keys, pts)
        for i, (k, p) in enumerate(pairs):
            assert cts[i].tobytes() == Speck128(k).encrypt_block(p)

    @given(st.lists(key32, min_size=1, max_size=6), st.binary(min_size=12, max_size=12),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_batch_chacha_equals_scalar(self, keys, nonce, counter):
        arr = np.frombuffer(b"".join(keys), np.uint8).reshape(-1, 32)
        blocks = chacha20_block_batch(arr, counter=counter, nonce=nonce)
        for i, key in enumerate(keys):
            assert blocks[i].tobytes() == chacha20_block(key, counter, nonce)


class TestSuffixedKernelProperties:
    @given(st.lists(key32, min_size=1, max_size=6),
           st.binary(min_size=0, max_size=103))
    @settings(max_examples=25, deadline=None)
    def test_suffixed_sha3_equals_scalar(self, seeds, suffix):
        from repro._bitutils import seeds_to_words
        from repro.hashes.batch_sha3 import (
            sha3_256_batch_seeds_suffixed,
            sha3_256_digest_to_words,
        )
        from repro.hashes.sha3 import sha3_256

        digests = sha3_256_batch_seeds_suffixed(seeds_to_words(seeds), suffix)
        for i, seed in enumerate(seeds):
            want = sha3_256_digest_to_words(sha3_256(seed + suffix))
            assert (digests[i] == want).all()

    @given(key32, st.binary(min_size=1, max_size=16))
    @settings(max_examples=20, deadline=None)
    def test_suffix_changes_digest(self, seed, suffix):
        from repro._bitutils import seeds_to_words
        from repro.hashes.batch_sha3 import sha3_256_batch_seeds_suffixed

        words = seeds_to_words([seed])
        plain = sha3_256_batch_seeds_suffixed(words, b"")
        bound = sha3_256_batch_seeds_suffixed(words, suffix)
        assert not (plain == bound).all()


class TestHMACProperties:
    @given(st.binary(min_size=1, max_size=100), st.binary(max_size=200))
    @settings(max_examples=30)
    def test_roundtrip(self, key, message):
        tag = hmac_digest(key, message)
        assert hmac_verify(key, message, tag)

    @given(st.binary(min_size=1, max_size=64), st.binary(max_size=100),
           st.binary(min_size=1, max_size=64))
    @settings(max_examples=30)
    def test_key_separation(self, key_a, message, key_delta):
        key_b = bytes(a ^ b for a, b in zip(key_a.ljust(64, b"\0"), key_delta.ljust(64, b"\0")))
        if key_b.rstrip(b"\0") == key_a.rstrip(b"\0"):
            return
        assert hmac_digest(key_a, message) != hmac_digest(key_b, message)

    @given(st.binary(min_size=1, max_size=64), st.binary(max_size=100), st.integers(0, 255))
    @settings(max_examples=30)
    def test_message_sensitivity(self, key, message, extra):
        tampered = message + bytes([extra])
        assert hmac_digest(key, message) != hmac_digest(key, tampered)


class TestChase382Properties:
    @given(st.integers(1, 10), st.data())
    @settings(max_examples=30, deadline=None)
    def test_twiddle_is_gray_code(self, n, data):
        from itertools import combinations

        from repro.combinatorics.chase382 import chase382_sequence

        k = data.draw(st.integers(1, n))
        seq = list(chase382_sequence(n, k))
        assert set(seq) == set(combinations(range(n), k))
        assert len(seq) == len(set(seq))
        for a, b in zip(seq, seq[1:]):
            assert len(set(a) ^ set(b)) == 2
