"""The compiled range scan (``hashes/fused.c``) against its oracles.

A scan walks ranks ``[lo, hi)`` of one Hamming shell in C, on the
calling thread and the pool's helpers. Every scan must name the row that
Algorithm 515, the vectorized unranking, the NumPy candidates and the
native digests say matches, whichever worker's chunk holds it; stop
within eight rows of its stop byte on every worker; and refuse
out-of-range arguments in Python. The C unrank must name Algorithm 515's
candidate, and the fleet must give the same answers when no compiler is
there to build it.
"""

import ctypes
import os
import random
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro import gates
from repro._bitutils import SEED_BITS, flip_bits, seed_to_words, words_to_seeds
from repro.combinatorics.algorithm515 import unrank_lexicographic
from repro.combinatorics.binomial import binomial
from repro.combinatorics.ranking import unrank_lexicographic_batch
from repro.fleet import batcher
from repro.fleet.batcher import BatchSlice, first_matches
from repro.fleet.engine import default_worker_count
from repro.hashes import compiled, native
from repro.hashes.registry import get_hash
from repro.runtime.maskplan import candidates

HASHES = ("sha1", "sha3-256")
SEED = bytes(range(100, 132))
#: Rows a pool worker claims at a time (``CHUNK`` in fused.c).
CHUNK = 512
DRIVER = Path(__file__).with_name("fused_pool_driver.c")


def _compiler_runs() -> bool:
    """Whether ``$CC`` names a program that answers ``--version``."""
    command = compiled._command()
    if shutil.which(command[0]) is None:
        return False
    probe = subprocess.run([*command, "--version"], capture_output=True, timeout=60)
    return probe.returncode == 0


def _sealed(path) -> bool:
    image = path.read_bytes()
    return native.sha3_256(image[:-32]) == image[-32:]


def _digests(name, distance, lo, hi, seed=SEED):
    """The native digest of every candidate of ranks ``[lo, hi)``, made
    by the NumPy walk the compiled one replaces."""
    words = candidates(distance, lo, hi, seed_to_words(seed))
    return [native.digest(name, s) for s in words_to_seeds(words)] if hi > lo else []


def _never():
    return ctypes.c_uint8(0)


def _absent(name):
    return native.digest(name, b"\xff" * 32)


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
        # C(256, 11) is the largest shell size an int64 holds.
        assert kernel.max_distance == 11

    @pytest.mark.parametrize("name", HASHES)
    def test_every_row_is_found_where_it_is(self, kernel, name):
        """Every rank of shell 1, and the first 200 of shell 2, in one
        range each; the from-spec kernels agree with the native digests."""
        for distance, hi in ((1, 256), (2, 200)):
            words = candidates(distance, 0, hi, seed_to_words(SEED))
            from_spec = get_hash(name).batch(words)
            assert (native.digest_batch(name, words) == from_spec).all()
            for row, digest in enumerate(_digests(name, distance, 0, hi)):
                assert kernel.scan(name, distance, 0, hi, SEED, digest, _never()) == (
                    row,
                    row + 1,
                )

    @pytest.mark.parametrize("name", HASHES)
    @pytest.mark.parametrize("distance", [0, 1, 2, 3])
    def test_rank_ranges_of_a_shell(self, kernel, name, distance):
        size = binomial(SEED_BITS, distance)
        for lo, hi in {(0, min(size, 97)), (size // 2, size // 2 + 1), (max(size - 77, 0), size)}:
            digests = _digests(name, distance, lo, hi)
            for row in {0, (hi - lo) // 2, hi - lo - 1}:
                assert kernel.scan(
                    name, distance, lo, hi, SEED, digests[row], _never()
                ) == (row, row + 1)

    @pytest.mark.parametrize("name", HASHES)
    def test_a_scan_stops_at_its_match(self, kernel, name):
        """The rows scanned run through the match; a range that starts
        just past it finds nothing in the rest of the shell's ranks."""
        digest = _digests(name, 2, 17, 18)[0]
        assert kernel.scan(name, 2, 0, 64, SEED, digest, _never()) == (17, 18)
        assert kernel.scan(name, 2, 18, 64, SEED, digest, _never()) == (None, 46)

    @pytest.mark.parametrize("name", HASHES)
    def test_a_miss_and_an_empty_batch(self, kernel, name):
        assert kernel.scan(name, 2, 0, 32, SEED, _absent(name), _never()) == (None, 32)
        assert kernel.scan(name, 2, 5, 5, SEED, _absent(name), _never()) == (None, 0)

    def test_malformed_arguments_never_reach_c(self, kernel):
        """Every argument the C walk trusts is checked in Python first."""
        sha3 = _absent("sha3-256")
        good = ("sha3-256", 2, 0, 8, SEED, sha3, _never())
        assert kernel.scan(*good) == (None, 8)
        top = binomial(SEED_BITS, 3)
        for bad in (
            {1: -1},  # distance
            {1: 12},
            {2: 9, 3: 8},  # lo > hi
            {2: -1},
            {1: 3, 2: top - 1, 3: top + 1},  # past the shell
            {4: SEED[:31]},  # seed shape
            {4: bytearray(SEED)},
            {5: sha3[:20]},  # a SHA-1-sized digest for SHA3-256
            {6: 0},  # a stop that is not a byte the scan can read
            {6: ctypes.c_int(0)},
        ):
            arguments = list(good)
            for index, value in bad.items():
                arguments[index] = value
            with pytest.raises(ValueError):
                kernel.scan(*arguments)
        with pytest.raises(ValueError):
            kernel.scan("sha1", 1, 0, 8, SEED, sha3, _never())
        with pytest.raises(ValueError):
            kernel.scan(*good, 0)  # no worker to scan on


class TestTheWalk:
    """The C walk's candidate order against Algorithm 515, the vectorized
    unranking and the NumPy candidates, for seeded random ranges."""

    @pytest.mark.parametrize("name", HASHES)
    def test_seeded_random_ranges(self, kernel, name):
        rng = random.Random(f"walk-{name}")
        for _ in range(40):
            distance = rng.randint(0, 5)
            size = binomial(SEED_BITS, distance)
            lo = rng.randrange(size)
            hi = min(size, lo + rng.randint(0, 50))
            seed = rng.randbytes(32)
            ranks = np.arange(lo, hi, dtype=np.uint64)
            positions = unrank_lexicographic_batch(SEED_BITS, distance, ranks)
            seeds = [flip_bits(seed, row) for row in positions.tolist()]
            assert [
                flip_bits(seed, unrank_lexicographic(SEED_BITS, distance, rank))
                for rank in range(lo, hi)
            ] == seeds
            digests = _digests(name, distance, lo, hi, seed)
            assert digests == [native.digest(name, s) for s in seeds]
            for row, digest in enumerate(digests):
                assert kernel.scan(name, distance, lo, hi, seed, digest, _never()) == (
                    row,
                    row + 1,
                )
            assert kernel.scan(
                name, distance, lo, hi, seed, _absent(name), _never()
            ) == (None, hi - lo)

    @pytest.mark.parametrize("name", HASHES)
    @pytest.mark.parametrize("distance", [3, 4, 5])
    def test_ranges_that_carry_across_a_prefix(self, kernel, name, distance):
        """Where the first position moves on (every lower position's
        block exhausted) and where a middle one does: the boundaries of
        the NumPy walk's d = 2 suffix groups (``_pairs_from``)."""
        size = binomial(SEED_BITS, distance)
        first = [size - binomial(SEED_BITS - p, distance) for p in (1, 2, 97, 200)]
        middle = binomial(SEED_BITS - 2, distance - 2)  # (0, 1, ..., 255) -> (0, 2, ...)
        for boundary in (*first, middle):
            lo, hi = boundary - 5, boundary + 6
            for row, digest in enumerate(_digests(name, distance, lo, hi)):
                assert kernel.scan(name, distance, lo, hi, SEED, digest, _never()) == (
                    row,
                    row + 1,
                )

    @pytest.mark.parametrize("name", HASHES)
    @pytest.mark.parametrize("distance", [1, 2, 3, 4, 5])
    def test_ranges_that_end_at_the_shell_size(self, kernel, name, distance):
        hi = binomial(SEED_BITS, distance)
        lo = hi - 13
        digests = _digests(name, distance, lo, hi)
        for row in (0, 7, 8, 12):
            assert kernel.scan(
                name, distance, lo, hi, SEED, digests[row], _never()
            ) == (row, row + 1)
        assert kernel.scan(name, distance, lo, hi, SEED, _absent(name), _never()) == (
            None,
            13,
        )

    @pytest.mark.parametrize("name", HASHES)
    @pytest.mark.parametrize("row", range(11))
    def test_a_first_match_in_every_lane_and_a_short_tail(self, kernel, name, row):
        """Rows 0-7 are the eight lanes of one SHA3-256 permutation, rows
        8-10 a short last group."""
        digest = _digests(name, 3, 250, 261)[row]
        assert kernel.scan(name, 3, 250, 261, SEED, digest, _never()) == (row, row + 1)


class TestEightRowGroups:
    """SHA3-256 hashes eight rows per permutation, one per vector lane;
    these pin every lane and a short last group's spare lanes."""

    @pytest.mark.parametrize("n", range(1, 18))
    def test_every_lane_of_every_group_size(self, kernel, n):
        lo = 250 + n  # d = 3: the prefix moves on at rank 254
        for row, digest in enumerate(_digests("sha3-256", 3, lo, lo + n)):
            assert kernel.scan("sha3-256", 3, lo, lo + n, SEED, digest, _never()) == (
                row,
                row + 1,
            )

    @pytest.mark.parametrize("pair", [(0, 7), (2, 3), (9, 14)])
    def test_two_equal_rows_in_one_group_return_the_lower(self, kernel, pair):
        """A short last group repeats its last row in its spare lanes: a
        scan of ``pair[0] + 1`` rows holds that row again in lane
        ``pair[1] % 8`` and answers the real, lower one."""
        last, spare = pair
        assert last < spare < (last // 8 + 1) * 8  # a spare lane of its group
        digest = _digests("sha3-256", 2, 40 + last, 41 + last)[0]
        assert kernel.scan("sha3-256", 2, 40, 41 + last, SEED, digest, _never()) == (
            last,
            last + 1,
        )

    @pytest.mark.parametrize("n", [0, 1, 5, 8, 11, 15])
    def test_rows_past_the_end_never_match(self, kernel, n):
        """Rank ``lo + n`` is where the spare lanes would walk past a
        short group; a scan of ``n`` rows must not find it."""
        beyond = _digests("sha3-256", 3, 300 + n, 301 + n)[0]
        assert kernel.scan("sha3-256", 3, 300, 300 + n, SEED, beyond, _never()) == (
            None,
            n,
        )
        assert kernel.scan(
            "sha3-256", 3, 300, 301 + n, SEED, beyond, _never()
        ) == (n, n + 1)

    def test_the_load_time_self_test_reaches_a_short_last_group(
        self, kernel, monkeypatch
    ):
        """A kernel that answers only within the first eight rows fails
        the check ``load()`` runs before serving."""
        real = kernel.scan

        def first_group_only(*arguments):
            row, rows = real(*arguments)
            return (row, rows) if row is not None and row < 8 else (None, rows)

        monkeypatch.setattr(kernel, "scan", first_group_only)
        assert not compiled._agrees_with_native(kernel)
        monkeypatch.undo()
        assert compiled._agrees_with_native(kernel)


def _vector_built(distance, lo, hi):
    """The rows (from ``lo``) that start the eight-row groups of
    ``[lo, hi)`` a SHA3-256 scan builds in its vector lanes: full groups
    whose rows differ in their last position alone, p .. p + 7 <= 255."""
    if not distance:
        return []
    return [
        start - lo
        for start in range(lo, hi - 7, 8)
        if unrank_lexicographic(SEED_BITS, distance, start)[-1] + 7 < SEED_BITS
    ]


class TestVectorBuiltGroups:
    """Eight rows that differ in their last position alone are built in
    the vector lanes from the other positions' words; the permutation
    stops at lane 0 unless lane 0 equals the target's first word, and a
    group that passes is hashed again in full and compared on all four."""

    @pytest.mark.parametrize("distance", [1, 2, 3])
    @pytest.mark.parametrize("lane", range(8))
    def test_a_match_in_every_lane(self, kernel, distance, lane):
        lo = 3  # (3), (0, 4), (0, 1, 5): two groups of last positions 3 .. 18
        assert _vector_built(distance, lo, lo + 16) == [0, 8]
        digests = _digests("sha3-256", distance, lo, lo + 16)
        for row in (lane, 8 + lane):
            assert kernel.scan(
                "sha3-256", distance, lo, lo + 16, SEED, digests[row], _never()
            ) == (row, row + 1)

    @pytest.mark.parametrize("distance", [1, 2, 3])
    @pytest.mark.parametrize("last", [248, 249, 250])
    def test_a_group_whose_last_position_crosses_255(self, kernel, distance, last):
        """A group that starts at last position 248 ends at 255, the last
        one built in the vector lanes; from 249 or 250 it runs out of
        positions: the prefix moves on (d >= 2) or the shell ends (d = 1)."""
        lo = last + 1 - distance  # (last), (0, last), (0, 1, last)
        hi = min(binomial(SEED_BITS, distance), lo + 24)
        assert unrank_lexicographic(SEED_BITS, distance, lo)[-1] == last
        assert (0 in _vector_built(distance, lo, hi)) is (last == 248)
        for row, digest in enumerate(_digests("sha3-256", distance, lo, hi)):
            assert kernel.scan(
                "sha3-256", distance, lo, hi, SEED, digest, _never()
            ) == (row, row + 1)
        assert kernel.scan(
            "sha3-256", distance, lo, hi, SEED, _absent("sha3-256"), _never()
        ) == (None, hi - lo)

    @pytest.mark.parametrize("distance", [1, 2, 3])
    @pytest.mark.parametrize("lo", [1005, 2011, 3047])
    @pytest.mark.parametrize("n", [9, 21, 30])
    def test_ranges_that_start_and_end_mid_group(self, kernel, distance, lo, n):
        """Ranges whose first row's last position is not a multiple of
        eight and whose length is not either: vector-built groups beside
        groups whose prefix moves on, and a short tail."""
        size = binomial(SEED_BITS, distance)
        lo, hi = lo % (size - n), lo % (size - n) + n
        for row, digest in enumerate(_digests("sha3-256", distance, lo, hi)):
            assert kernel.scan(
                "sha3-256", distance, lo, hi, SEED, digest, _never()
            ) == (row, row + 1)
        assert kernel.scan(
            "sha3-256", distance, lo, hi, SEED, _absent("sha3-256"), _never()
        ) == (None, n)

    @pytest.mark.parametrize("distance", [0, 1, 2, 3])
    def test_a_lane_0_near_miss_is_no_match(self, kernel, distance):
        """A target that is a row's digest in its first eight bytes and
        not after them passes the lane-0 compare and fails the full one."""
        hi = min(binomial(SEED_BITS, distance), 20)
        digests = _digests("sha3-256", distance, 0, hi)
        for row in {0, 9, hi - 1} & set(range(hi)):
            digest = digests[row]
            for near in (
                digest[:8] + bytes(b ^ 0xFF for b in digest[8:]),
                digest[:31] + bytes([digest[31] ^ 1]),
            ):
                assert kernel.scan(
                    "sha3-256", distance, 0, hi, SEED, near, _never()
                ) == (None, hi)
            assert kernel.scan("sha3-256", distance, 0, hi, SEED, digest, _never()) == (
                row,
                row + 1,
            )

    def test_the_load_time_self_test_reaches_a_vector_built_group(
        self, kernel, monkeypatch
    ):
        """A kernel that answers nothing in a vector-built group fails the
        check ``load()`` runs before serving."""
        real = kernel.scan

        def scalar_groups_only(name, distance, lo, hi, *rest):
            row, rows = real(name, distance, lo, hi, *rest)
            if row is not None and row - row % 8 in _vector_built(distance, lo, hi):
                return None, rows
            return row, rows

        monkeypatch.setattr(kernel, "scan", scalar_groups_only)
        assert not compiled._agrees_with_native(kernel)
        monkeypatch.undo()
        assert compiled._agrees_with_native(kernel)


class TestTheStopByte:
    """§4.4's exit flag: the scan reads its stop byte once per eight rows
    and reports the rows it scanned before it stopped."""

    @pytest.mark.parametrize("name", HASHES)
    def test_set_before_the_call(self, kernel, name):
        stop = ctypes.c_uint8(1)
        first = _digests(name, 2, 0, 1)[0]
        assert kernel.scan(name, 2, 0, 4096, SEED, first, stop) == (None, 0)

    @pytest.mark.parametrize("name", HASHES)
    def test_set_from_another_thread_during_a_long_range(self, kernel, name):
        """A whole d = 3 shell (2 763 520 rows, a fifth of a second) stops
        short once another thread sets the byte; the interpreter lock is
        released for the call, so that thread runs meanwhile."""
        size, stop, answers = binomial(SEED_BITS, 3), ctypes.c_uint8(0), []
        scanning = threading.Thread(
            target=lambda: answers.append(
                kernel.scan(name, 3, 0, size, SEED, _absent(name), stop)
            )
        )
        scanning.start()
        stop.value = 1
        scanning.join(timeout=60)
        ((row, rows),) = answers
        assert row is None and rows < size and rows % 8 == 0


class TestThePool:
    """One range on several cores: the caller and the pool's helpers
    claim ``CHUNK``-row chunks, the lowest match wins, and the answer is
    the one a single-thread scan gives."""

    def test_one_helper_fewer_than_the_cpuset(self, kernel):
        assert kernel.helpers() == default_worker_count() - 1

    @pytest.mark.parametrize("name", HASHES)
    @pytest.mark.parametrize("workers", [2, 4])
    def test_a_match_on_the_first_and_last_row_of_a_chunk(self, kernel, name, workers):
        lo, n = 400, 5 * CHUNK + 37
        for row in (0, CHUNK - 1, CHUNK, 2 * CHUNK - 1, 3 * CHUNK, n - 1):
            digest = _digests(name, 3, lo + row, lo + row + 1)[0]
            assert kernel.scan(
                name, 3, lo, lo + n, SEED, digest, _never(), workers
            ) == (row, row + 1), row
        assert kernel.scan(
            name, 3, lo, lo + n, SEED, _absent(name), _never(), workers
        ) == (None, n)

    @pytest.mark.parametrize("name", HASHES)
    @pytest.mark.parametrize("n", [0, 1, 100, CHUNK - 1, CHUNK, CHUNK + 1])
    def test_a_range_of_at_most_one_chunk_and_an_empty_one(self, kernel, name, n):
        if n:
            digest = _digests(name, 2, 90 + n - 1, 90 + n)[0]
            assert kernel.scan(name, 2, 90, 90 + n, SEED, digest, _never(), 2) == (
                n - 1,
                n,
            )
        assert kernel.scan(name, 2, 90, 90 + n, SEED, _absent(name), _never(), 2) == (
            None,
            n,
        )

    @pytest.mark.parametrize("name", HASHES)
    def test_the_stop_byte_set_before_the_call(self, kernel, name):
        first = _digests(name, 2, 0, 1)[0]
        assert kernel.scan(name, 2, 0, 8 * CHUNK, SEED, first, ctypes.c_uint8(1), 2) == (
            None,
            0,
        )

    @pytest.mark.parametrize("name", HASHES)
    def test_the_stop_byte_set_mid_range_stops_every_worker(self, kernel, name):
        """Shell 3 whole, stopped once the pool is in use: the call
        returns short with the rows every worker scanned (none, if the
        byte was set before any worker's first eight-row group), and
        only once each of them has left the pool."""
        size, stop, answers = binomial(SEED_BITS, 3), ctypes.c_uint8(0), []
        scanning = threading.Thread(
            target=lambda: answers.append(
                kernel.scan(name, 3, 0, size, SEED, _absent(name), stop, 2)
            )
        )
        scanning.start()
        deadline = time.perf_counter() + 10
        while not kernel.busy() and scanning.is_alive():
            assert time.perf_counter() < deadline
        stop.value = 1
        scanning.join(timeout=60)
        ((row, rows),) = answers
        assert row is None and rows < size and rows % 8 == 0
        assert not kernel.busy()

    def test_one_worker_scans_on_the_caller_alone(self, kernel):
        size, stop, answers = binomial(SEED_BITS, 3), ctypes.c_uint8(0), []
        scanning = threading.Thread(
            target=lambda: answers.append(
                kernel.scan("sha3-256", 3, 0, size, SEED, _absent("sha3-256"), stop, 1)
            )
        )
        scanning.start()
        watched = time.perf_counter() + 0.02
        while time.perf_counter() < watched and scanning.is_alive():
            assert not kernel.busy()
        stop.value = 1
        scanning.join(timeout=60)
        ((row, rows),) = answers
        assert row is None and rows < size and rows % 8 == 0

    @pytest.mark.parametrize("name", HASHES)
    def test_a_second_caller_finds_the_pool_taken_and_scans_alone(self, kernel, name):
        """Two Python threads at once: while one holds the pool, the
        other's pooled scan runs on its own thread; both answer right."""
        size, answers = binomial(SEED_BITS, 3), []
        late = size - 1000
        digest = _digests(name, 3, late, late + 1)[0]
        first = threading.Thread(
            target=lambda: answers.append(
                kernel.scan(name, 3, 0, size, SEED, digest, _never(), 2)
            )
        )
        first.start()
        deadline = time.perf_counter() + 10
        while not kernel.busy():
            assert time.perf_counter() < deadline and first.is_alive()
        lo, n = 70_000, 3 * CHUNK
        near = _digests(name, 3, lo + n - 2, lo + n - 1)[0]
        assert kernel.scan(name, 3, lo, lo + n, SEED, near, _never(), 2) == (n - 2, n - 1)
        held = first.is_alive()
        first.join(timeout=60)
        assert answers == [(late, late + 1)]
        assert held, "the first scan ended before the second could find it"

    def test_the_c_driver(self, kernel, tmp_path):
        """The lower of two matches in different chunks (a scan that
        finds the higher one first), planted SHA3-256 and SHA-1 matches,
        a stop byte from another thread and two callers at once, driven
        from C: CI runs the same driver under ThreadSanitizer."""
        binary = tmp_path / "driver"
        subprocess.run(
            [*compiled._command(), "-O2", "-march=native", "-pthread",
             "-o", str(binary), str(DRIVER)],
            check=True, capture_output=True, timeout=120,
        )
        done = subprocess.run([str(binary)], capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == [f"{kernel.helpers()}", "helper(s);", "ok"]


class TestTheUnrank:
    """``fused_unrank``, the seed a matching row names, against
    Algorithm 515 (``combinatorics/algorithm515.py``)."""

    @pytest.mark.parametrize("distance", range(0, 12))
    def test_against_algorithm_515(self, kernel, distance):
        rng = random.Random(f"unrank-{distance}")
        size = binomial(SEED_BITS, distance)
        for rank in {0, size - 1, *(rng.randrange(size) for _ in range(20))}:
            seed = rng.randbytes(32)
            expected = flip_bits(seed, unrank_lexicographic(SEED_BITS, distance, rank))
            assert kernel.unrank(seed, distance, rank) == expected, rank
            assert batcher.seed_at(seed, distance, rank) == expected, rank

    def test_ranks_outside_the_shell_never_reach_c(self, kernel):
        for distance, rank in ((2, -1), (2, binomial(SEED_BITS, 2)), (12, 0), (-1, 0)):
            with pytest.raises(ValueError):
                kernel.unrank(SEED, distance, rank)
        with pytest.raises(ValueError):
            kernel.unrank(SEED[:31], 2, 0)


def _slices(name: str):
    """One fused batch of three requests: a hit in shell 1, one in shell
    3, none in shell 2."""
    slices = []
    for distance, lo, hi, hit in ((1, 0, 256, 131), (3, 5000, 7000, 1999), (2, 0, 900, None)):
        digest = (
            _absent(name)
            if hit is None
            else _digests(name, distance, lo + hit, lo + hit + 1)[0]
        )
        slices.append(BatchSlice(distance, distance, lo, hi, SEED, digest, _never()))
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
            assert first_matches(algo, True, slices) == as_served == [
                (131, 256),
                (1999, 2000),
                (None, 900),
            ]
            # A stopped slice is skipped whole; the others still answer.
            slices[1].stop.value = 1
            assert first_matches(algo, True, slices) == [
                (131, 256),
                (None, 0),
                (None, 900),
            ]
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
