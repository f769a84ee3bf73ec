"""The compiled first-match kernel (``hashes/fused.c``) against its oracles.

Every scan must name the row the native digests and the from-spec batch
kernels say matches — the lowest one when several do — and the fleet
must give the same answers when no compiler is there to build it.
"""

import ctypes
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from repro import gates
from repro._bitutils import SEED_BITS
from repro.combinatorics.binomial import binomial
from repro.fleet.batcher import first_matches
from repro.hashes import compiled, native
from repro.hashes.registry import get_hash
from repro.runtime.maskplan import candidates

HASHES = ("sha1", "sha3-256")


def _compiler_runs() -> bool:
    """Whether ``$CC`` names a program that answers ``--version``."""
    command = compiled._command()
    if shutil.which(command[0]) is None:
        return False
    probe = subprocess.run([*command, "--version"], capture_output=True, timeout=60)
    return probe.returncode == 0


def _rows(count: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.integers(0, 1 << 64, size=(count, 4), dtype=np.uint64)


def _sealed(path) -> bool:
    image = path.read_bytes()
    return native.sha3_256(image[:-32]) == image[-32:]


@pytest.fixture(scope="module")
def kernel():
    loaded = compiled.load()
    if loaded is None:
        pytest.skip("no compiled kernel on this host")
    return loaded


@pytest.fixture
def empty_cache(monkeypatch, tmp_path):
    """A fresh cache directory and a ``load`` that has not run yet."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    compiled.load.cache_clear()
    yield tmp_path
    compiled.load.cache_clear()


def test_a_host_with_a_compiler_builds_the_kernel():
    """Otherwise every scan test below could be skipped unnoticed."""
    assert (compiled.load() is not None) is _compiler_runs()


class TestScansAgreeWithTheOracles:
    def test_compiled_hashes(self, kernel):
        assert kernel.hashes == frozenset(HASHES)

    @pytest.mark.parametrize("name", HASHES)
    def test_every_row_is_found_where_it_is(self, kernel, name):
        words = np.concatenate(
            [
                _rows(200, seed=1),
                np.zeros((1, 4), dtype=np.uint64),
                np.full((1, 4), np.iinfo(np.uint64).max, dtype=np.uint64),
            ]
        )
        from_spec = get_hash(name).batch(words)
        assert (native.digest_batch(name, words) == from_spec).all()
        for row, target in enumerate(from_spec):
            assert kernel.first_match(name, words, target) == row

    @pytest.mark.parametrize("name", HASHES)
    @pytest.mark.parametrize("distance", [0, 1, 2, 3])
    def test_rank_ranges_of_a_shell(self, kernel, name, distance):
        base = _rows(1, seed=2)[0]
        size = binomial(SEED_BITS, distance)
        for lo, hi in {(0, min(size, 97)), (size // 2, size // 2 + 1), (max(size - 77, 0), size)}:
            words = candidates(distance, lo, hi, base)
            from_spec = get_hash(name).batch(words)
            assert (native.digest_batch(name, words) == from_spec).all()
            for row in {0, (hi - lo) // 2, hi - lo - 1}:
                assert kernel.first_match(name, words, from_spec[row]) == row

    @pytest.mark.parametrize("name", HASHES)
    def test_the_lowest_of_two_matches_wins(self, kernel, name):
        words = _rows(64, seed=3)
        words[50] = words[17]
        target = native.digest_batch(name, words[17:18])[0]
        assert kernel.first_match(name, words, target) == 17
        assert kernel.first_match(name, words[18:], target) == 50 - 18

    @pytest.mark.parametrize("name", HASHES)
    def test_a_miss_and_an_empty_batch(self, kernel, name):
        words = _rows(32, seed=4)
        absent = native.digest_batch(name, _rows(1, seed=5))[0]
        assert kernel.first_match(name, words, absent) is None
        assert kernel.first_match(name, words[:0], absent) is None

    def test_malformed_arguments_never_reach_c(self, kernel):
        words = _rows(4, seed=6)
        target = native.digest_batch("sha3-256", words)[0]
        with pytest.raises(ValueError):
            kernel.first_match("sha3-256", words[:, :3].copy(), target)
        for bad in (words[::2], words.astype(np.int64)):
            with pytest.raises(ctypes.ArgumentError):
                kernel.first_match("sha3-256", bad, target)
        # Four SHA-1 words: the scan would read a fifth past the end.
        short = native.digest_batch("sha1", words)[0][:4].copy()
        with pytest.raises(ctypes.ArgumentError, match="shape"):
            kernel.first_match("sha1", words, short)


class TestEightRowGroups:
    """SHA3-256 hashes eight rows per permutation, one per vector lane;
    these pin every lane and a short last group's spare lanes."""

    @pytest.mark.parametrize("n", range(1, 18))
    def test_every_lane_of_every_group_size(self, kernel, n):
        words = _rows(n, seed=100 + n)
        for row, target in enumerate(native.digest_batch("sha3-256", words)):
            assert kernel.first_match("sha3-256", words, target) == row

    @pytest.mark.parametrize("pair", [(0, 7), (2, 3), (9, 14)])
    def test_two_equal_rows_in_one_group_return_the_lower(self, kernel, pair):
        words = _rows(16, seed=9)
        words[pair[1]] = words[pair[0]]
        target = native.digest_batch("sha3-256", words[pair[0] : pair[0] + 1])[0]
        assert kernel.first_match("sha3-256", words, target) == pair[0]

    @pytest.mark.parametrize("n", [0, 1, 5, 8, 11, 15])
    def test_rows_past_the_end_never_match(self, kernel, n):
        """Row ``n`` is where the spare lanes would read past a short
        group; a scan of ``n`` rows must not find it, and it repeats row
        ``n - 1`` rather than read it."""
        words = _rows(n + 1, seed=10 + n)
        beyond = native.digest_batch("sha3-256", words[n : n + 1])[0]
        assert kernel.first_match("sha3-256", words[:n], beyond) is None
        assert kernel.first_match("sha3-256", words, beyond) == n

    def test_the_load_time_self_test_reaches_a_short_last_group(
        self, kernel, monkeypatch
    ):
        """A kernel that answers only within the first eight rows fails
        the check ``load()`` runs before serving."""
        real = kernel.first_match

        def first_group_only(name, words, target):
            row = real(name, words, target)
            return row if row is not None and row < 8 else None

        monkeypatch.setattr(kernel, "first_match", first_group_only)
        assert not compiled._agrees_with_native(kernel)
        monkeypatch.undo()
        assert compiled._agrees_with_native(kernel)


def _slices(name: str):
    """One fused batch of three requests: a hit in shell 1, one in shell
    3, none in shell 2."""
    base = _rows(1, seed=7)[0]
    slices = []
    for distance, lo, hi, hit in ((1, 0, 256, 131), (3, 5000, 7000, 1999), (2, 0, 900, None)):
        planted = (
            _rows(1, seed=8)
            if hit is None
            else candidates(distance, lo + hit, lo + hit + 1, base)
        )
        slices.append((distance, lo, hi, base, native.digest_batch(name, planted)[0]))
    return slices


class TestForcedFallback:
    @pytest.mark.parametrize("name", HASHES)
    def test_no_compiler_means_hashlib_and_the_same_rows(
        self, monkeypatch, tmp_path, name
    ):
        algo, slices = get_hash(name), _slices(name)
        as_served = first_matches(algo, True, slices)
        monkeypatch.setenv("CC", "/bin/false")
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        compiled.load.cache_clear()
        try:
            assert compiled.load() is None
            assert compiled.describe() == "hashlib"
            assert first_matches(algo, True, slices) == as_served == [131, 1999, None]
        finally:
            compiled.load.cache_clear()
        assert [path for path in tmp_path.rglob("*") if path.is_file()] == []

    @pytest.mark.parametrize("damage", ["truncated", "empty", "foreign"])
    def test_a_damaged_cache_file_is_rebuilt_not_mapped(self, empty_cache, damage):
        builds = _compiler_runs()
        path = compiled.library_path()
        whole = b"\x7fELF" + bytes(8000)
        if builds:
            assert compiled.load() is not None
            whole = path.read_bytes()
            compiled.load.cache_clear()
            # A new file under the same name: the copy this process has
            # mapped keeps its own inode.
            os.unlink(path)
        image = {
            "truncated": whole[:4096],
            "empty": b"",
            "foreign": b"\x7fELF" + os.urandom(5000),
        }[damage]
        path.write_bytes(image)
        assert (compiled.load() is not None) is builds
        if builds:
            assert _sealed(path)


class TestRecordsNameTheKernel:
    def test_a_built_kernel(self, kernel):
        assert gates._host_fingerprint()["kernel"] == kernel.description
        assert kernel.description.startswith(
            " ".join([*compiled._command(), "-O3", "-march=native", "("])
        )

    def test_the_vector_isa_the_cpu_offers(self, kernel):
        """Whether the eight SHA3-256 lanes ran in one register or two:
        ``-march=native`` builds for the widest ISA the CPU reports."""
        isa = kernel.description.rsplit(", ", 1)[1].rstrip(")")
        flags = compiled._cpu_flags().split()
        expected = next(
            (name for name in ("avx512f", "avx2") if name.encode() in flags),
            "generic",
        )
        assert isa == expected

    def test_the_fallback(self, monkeypatch, empty_cache):
        monkeypatch.setenv("CC", "/bin/false")
        assert gates._host_fingerprint()["kernel"] == "hashlib"


def test_a_fleet_engine_never_imports_cffi():
    script = (
        "import sys\n"
        "from repro.engines import build_engine\n"
        "with build_engine('fleet:host,hash=sha3-256,bs=4096'):\n"
        "    pass\n"
        "print(sorted(name for name in sys.modules if 'cffi' in name))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
