"""Native (``hashlib``) digests behind the registry seam.

The from-spec kernels are the oracle: every native result must be the
same array — shape, dtype, bytes — the from-spec batch kernel returns,
and both must agree with ``hashlib`` called directly.
"""

import dataclasses
import gc
import hashlib
import pathlib
import re
import sys
import threading

import numpy as np
import pytest

import repro
from repro._bitutils import words_to_seeds
from repro.hashes import native
from repro.hashes.batch_sha3 import sha3_256_batch_seeds_suffixed
from repro.hashes.registry import available_hashes, get_hash

#: Registered name -> (hashlib constructor, byte order of the digest words).
REFERENCE = {
    "sha1": (hashlib.sha1, ">"),
    "sha256": (hashlib.sha256, ">"),
    "sha3-256": (hashlib.sha3_256, "<"),
    "sha512": (hashlib.sha512, ">"),
}

ROW_COUNTS = (0, 1, 2, 257, 4096, 16384)


def _words(rows: int, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.integers(0, 1 << 64, size=(rows, 4), dtype=np.uint64)


def _digest_bytes(name: str, digests: np.ndarray) -> bytes:
    """Digest words back to the concatenated digests they stand for."""
    order = REFERENCE[name][1]
    return digests.astype(digests.dtype.newbyteorder(order)).tobytes()


def _hashlib_bytes(name: str, words: np.ndarray, suffix: bytes = b"") -> bytes:
    new = REFERENCE[name][0]
    return b"".join(new(seed + suffix).digest() for seed in words_to_seeds(words))


@pytest.fixture(params=sorted(REFERENCE))
def algo(request):
    return get_hash(request.param)


def test_every_registered_hash_is_covered():
    assert sorted(REFERENCE) == available_hashes()


class TestBatchEquivalence:
    @pytest.mark.parametrize("rows", ROW_COUNTS)
    def test_native_equals_from_spec_equals_hashlib(self, algo, rows):
        words = _words(rows, seed=rows)
        got = native.digest_batch(algo.name, words)
        expected = algo.batch(words)
        assert got.shape == expected.shape
        assert got.dtype == expected.dtype
        assert (got == expected).all()
        assert _digest_bytes(algo.name, got) == _hashlib_bytes(algo.name, words)

    def test_scalar_equals_from_spec_and_hashlib(self, algo):
        for data in (b"", b"\x00" * 32, bytes(range(32)), b"x" * 300):
            expected = REFERENCE[algo.name][0](data).digest()
            assert native.digest(algo.name, data) == expected
            assert algo.hash_seed(data) == expected
            assert algo.scalar(data) == expected

    def test_sha3_scalar_shortcut(self):
        assert native.sha3_256(b"abc") == hashlib.sha3_256(b"abc").digest()

    def test_non_contiguous_input(self, algo):
        wide = _words(64, seed=3)
        for view in (wide[::2], wide[:, ::-1], wide[::-3, ::-1]):
            assert not view.flags.c_contiguous
            got = native.digest_batch(algo.name, view)
            assert (got == algo.batch(np.ascontiguousarray(view))).all()
            assert _digest_bytes(algo.name, got) == _hashlib_bytes(algo.name, view)

    def test_trailing_zero_bytes_survive(self, algo):
        # Fixed-width byte views can strip trailing NULs; seeds must not.
        words = np.zeros((3, 4), dtype=np.uint64)
        words[1, 3] = 1 << 56
        got = native.digest_batch(algo.name, words)
        assert (got == algo.batch(words)).all()

    def test_input_not_mutated_and_output_owned(self, algo):
        words = _words(8, seed=5)
        original = words.copy()
        out = native.digest_batch(algo.name, words)
        assert (words == original).all()
        assert out.flags.writeable

    @pytest.mark.parametrize(
        "bad",
        [
            np.zeros(4, dtype=np.uint64),
            np.zeros((2, 3), dtype=np.uint64),
            np.zeros((2, 5), dtype=np.uint64),
            np.zeros((2, 2, 4), dtype=np.uint64),
            np.array([["a", "b", "c", "d"]]),
        ],
        ids=["1-d", "3-words", "5-words", "3-d", "strings"],
    )
    def test_rejects_what_the_from_spec_kernel_rejects(self, algo, bad):
        with pytest.raises(ValueError) as from_spec:
            algo.batch(bad)
        with pytest.raises(ValueError) as got:
            native.digest_batch(algo.name, bad)
        assert str(got.value) == str(from_spec.value)
        with pytest.raises(ValueError):
            algo.hash_seeds_batch(bad)

    def test_unknown_hash_name(self):
        with pytest.raises(KeyError):
            native.digest("md5", b"")


class TestSuffixedForm:
    @pytest.mark.parametrize("length", [0, 1, 103])
    def test_sha3_equals_from_spec_suffixed_kernel(self, length):
        words = _words(257, seed=length)
        suffix = bytes(range(1, length + 1))
        got = get_hash("sha3-256").hash_seeds_suffixed(words, suffix)
        expected = sha3_256_batch_seeds_suffixed(words, suffix)
        assert got.dtype == expected.dtype
        assert (got == expected).all()

    @pytest.mark.parametrize("length", [0, 1, 16, 103])
    def test_every_hash_equals_hashlib(self, algo, length):
        words = _words(33, seed=length)
        suffix = b"\xa5" * length
        got = algo.hash_seeds_suffixed(words, suffix)
        assert _digest_bytes(algo.name, got) == _hashlib_bytes(
            algo.name, words, suffix
        )
        for i, seed in enumerate(words_to_seeds(words)[:4]):
            row = algo.digest_to_words(algo.hash_seed(seed + suffix))
            assert (got[i] == row).all()


class TestRowThreshold:
    def test_only_sha1_keeps_a_from_spec_width(self):
        thresholds = {
            name: get_hash(name).from_spec_min_rows for name in available_hashes()
        }
        assert thresholds.pop("sha1") == 4096
        assert set(thresholds.values()) == {None}

    def test_both_sides_of_the_threshold(self, algo):
        calls = []

        def spy(words, fixed_padding=True):
            calls.append((len(words), fixed_padding))
            return algo.batch(words, fixed_padding=fixed_padding)

        spied = dataclasses.replace(algo, batch=spy)
        threshold = algo.from_spec_min_rows or 4096
        for rows in (threshold - 1, threshold):
            words = _words(rows, seed=rows)
            got = spied.hash_seeds_batch(words, fixed_padding=False)
            assert _digest_bytes(algo.name, got) == _hashlib_bytes(algo.name, words)
        if algo.from_spec_min_rows is None:
            assert calls == []
        else:
            assert calls == [(threshold, False)]


def test_concurrent_batches_are_independent():
    """Two threads hashing different batches each get their own digests."""
    jobs = []
    for seed, name in enumerate(("sha3-256", "sha1")):
        # 5 000 SHA-1 rows also run the from-spec kernel under contention.
        words = _words(5000, seed=seed + 11)
        jobs.append((get_hash(name), words, get_hash(name).batch(words)))
    failures: list[str] = []

    def worker(algo, words, expected):
        for _ in range(6):
            if not (algo.hash_seeds_batch(words) == expected).all():
                failures.append(algo.name)

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=job) for job in jobs * 2]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(previous)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []


class _Cyclic:
    """Garbage only the cycle collector frees; its finalizer runs Python
    code, so a collection can switch threads wherever it starts."""

    def __init__(self):
        self.me = self

    def __del__(self):
        sum(range(10))


def test_concurrent_tiny_batches_survive_collections():
    """Scan threads hashing on the fallback while collections run.
    NumPy parses a sub-array dtype string with ``ast``, and CPython 3.11
    raises ``SystemError`` when two threads do that at once."""
    words = _words(2)
    expected = get_hash("sha1").batch(words)
    failures: list[str] = []

    def worker():
        try:
            for _ in range(5000):
                _Cyclic()
                if not (native.digest_batch("sha1", words) == expected).all():
                    failures.append("digests differ")
        except Exception as exc:
            failures.append(repr(exc))

    threshold, interval = gc.get_threshold(), sys.getswitchinterval()
    gc.set_threshold(1, 1, 1)
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
        gc.set_threshold(*threshold)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []


def test_hashlib_is_imported_in_one_module_only():
    root = pathlib.Path(repro.__file__).parent
    pattern = re.compile(r"^\s*(import hashlib|from hashlib\b)", re.MULTILINE)
    importers = {
        path.relative_to(root).as_posix()
        for path in root.rglob("*.py")
        if pattern.search(path.read_text())
    }
    assert importers == {"hashes/native.py"}
