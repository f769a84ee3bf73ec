"""Execution runtime: partitioning, batch executor, the ``parallel:`` alias."""

import numpy as np
import pytest

from repro._bitutils import SEED_BITS, flip_bits, positions_to_mask_words
from repro.combinatorics.binomial import binomial
from repro.combinatorics.ranking import rank_lexicographic, unrank_lexicographic_batch
from repro.hashes.sha1 import sha1
from repro.hashes.sha3 import sha3_256
from repro.runtime.executor import ITERATOR_CHOICES, BatchSearchExecutor
from repro.engines import build_engine
from repro.runtime.maskplan import candidates
from repro.runtime.partition import partition_ranks, thread_rank_ranges


class TestPartition:
    def test_covers_range_exactly(self):
        ranges = partition_ranks(100, 7)
        assert ranges[0][0] == 0 and ranges[-1][1] == 100
        for (a, b), (c, _) in zip(ranges, ranges[1:]):
            assert b == c

    def test_sizes_differ_by_at_most_one(self):
        ranges = partition_ranks(101, 7)
        sizes = [b - a for a, b in ranges]
        assert max(sizes) - min(sizes) <= 1

    def test_more_parts_than_work(self):
        ranges = partition_ranks(3, 5)
        sizes = [b - a for a, b in ranges]
        assert sum(sizes) == 3 and max(sizes) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            partition_ranks(10, 0)
        with pytest.raises(ValueError):
            partition_ranks(-1, 2)

    def test_thread_rank_ranges_match_shell(self):
        ranges = thread_rank_ranges(SEED_BITS, 2, 8)
        assert ranges[-1][1] == binomial(SEED_BITS, 2)


def _group_start(prefix):
    """Rank of the first combination with this (d - 2)-prefix."""
    return rank_lexicographic(SEED_BITS, (*prefix, prefix[-1] + 1, prefix[-1] + 2))


def _candidate_windows():
    """``(distance, lo, hi)`` cases for the generator against the oracle."""
    cases = [(d, 0, binomial(SEED_BITS, d)) for d in (0, 1, 2)]
    shell3 = binomial(SEED_BITS, 3)
    cases += [(3, lo, min(lo + (1 << 18), shell3)) for lo in range(0, shell3, 1 << 18)]
    for d, middle in ((4, (100, 101)), (5, (60, 97, 140))):
        shell = binomial(SEED_BITS, d)
        second = (*range(d - 3), d - 2)  # the group after the first one
        last = tuple(range(SEED_BITS - d, SEED_BITS - 2))
        for prefix in (second, middle, last):
            boundary = _group_start(prefix)
            cases.append((d, boundary - 3000, min(shell, boundary + 3000)))
        cases += [(d, 0, 4096), (d, shell - 4096, shell)]
    cases += [(3, 5000, 5000), (4, 123_456, 123_457), (0, 1, 1)]
    return cases


class TestCandidates:
    """The dispatcher's generator equals the ``batch:`` engine's unranking."""

    BASE = np.random.default_rng(7).integers(0, 1 << 63, size=4).astype(np.uint64)

    @pytest.mark.parametrize(
        "distance, lo, hi", _candidate_windows(), ids=lambda value: str(value)
    )
    def test_equals_unranked_masks_xor_base(self, distance, lo, hi):
        ranks = np.arange(lo, hi, dtype=np.uint64)
        expected = (
            positions_to_mask_words(
                unrank_lexicographic_batch(SEED_BITS, distance, ranks)
            )
            ^ self.BASE
        )
        got = candidates(distance, lo, hi, self.BASE)
        assert got.shape == (hi - lo, 4) and got.dtype == np.uint64
        assert np.array_equal(got, expected)

    def test_ranks_outside_the_shell_are_refused(self):
        with pytest.raises(IndexError):
            candidates(3, 0, binomial(SEED_BITS, 3) + 1, self.BASE)
        with pytest.raises(IndexError):
            candidates(1, 5, 4, self.BASE)


class TestBatchExecutor:
    @pytest.mark.parametrize("hash_name", ["sha1", "sha256", "sha3-256"])
    def test_finds_distance_2_seed(self, base_seed, hash_name):
        from repro.hashes.registry import get_hash

        algo = get_hash(hash_name)
        client_seed = flip_bits(base_seed, [7, 133])
        executor = BatchSearchExecutor(hash_name, batch_size=8192)
        result = executor.search(base_seed, algo.scalar(client_seed), 2)
        assert result.found and result.seed == client_seed and result.distance == 2

    def test_distance_zero_short_circuits(self, base_seed):
        executor = BatchSearchExecutor("sha3-256")
        result = executor.search(base_seed, sha3_256(base_seed), 2)
        assert result.found and result.distance == 0 and result.seeds_hashed == 1

    def test_exhausts_space_without_match(self, base_seed, rng):
        executor = BatchSearchExecutor("sha1", batch_size=4096)
        result = executor.search(base_seed, sha1(rng.bytes(32)), 1)
        assert not result.found and not result.timed_out
        assert result.seeds_hashed == 1 + 256  # d=0 plus the full d=1 shell

    def test_timeout_flagged(self, base_seed, rng):
        executor = BatchSearchExecutor("sha3-256", batch_size=128)
        result = executor.search(base_seed, sha3_256(rng.bytes(32)), 2, time_budget=0.0)
        assert result.timed_out

    @pytest.mark.parametrize("iterator", ITERATOR_CHOICES)
    def test_all_iterators_find_same_seed(self, base_seed, iterator):
        client_seed = flip_bits(base_seed, [99])
        executor = BatchSearchExecutor("sha1", batch_size=64, iterator=iterator)
        result = executor.search(base_seed, sha1(client_seed), 1)
        assert result.found and result.seed == client_seed

    def test_generic_padding_search(self, base_seed):
        client_seed = flip_bits(base_seed, [5])
        executor = BatchSearchExecutor("sha3-256", fixed_padding=False)
        result = executor.search(base_seed, sha3_256(client_seed), 1)
        assert result.found

    def test_invalid_configuration(self):
        with pytest.raises(ValueError):
            BatchSearchExecutor("sha1", batch_size=0)
        with pytest.raises(ValueError):
            BatchSearchExecutor("sha1", iterator="magic")

    def test_throughput_probe_positive(self):
        rate = BatchSearchExecutor("sha1").throughput_probe(num_seeds=2000)
        assert rate > 0

    def test_result_throughput_consistency(self, base_seed):
        client_seed = flip_bits(base_seed, [1, 2])
        executor = BatchSearchExecutor("sha1", batch_size=4096)
        result = executor.search(base_seed, sha1(client_seed), 2)
        assert result.seeds_hashed <= 1 + 256 + binomial(SEED_BITS, 2)


class TestParallelExecutor:
    """``parallel:`` is the one-device fleet on ``workers`` scan threads."""

    def test_finds_planted_seed(self, base_seed):
        client_seed = flip_bits(base_seed, [31, 222])
        with build_engine("parallel:sha1,workers=4,bs=4096") as executor:
            result = executor.search(base_seed, sha1(client_seed), 2)
        assert result.found and result.seed == client_seed and result.distance == 2

    def test_not_found_aggregates_counts(self, base_seed, rng):
        with build_engine("parallel:sha1,workers=3,bs=2048") as executor:
            result = executor.search(base_seed, sha1(rng.bytes(32)), 2)
            assert executor.worker_set.batches > 0
        assert not result.found
        # The workers jointly covered every shell, each row once.
        assert result.seeds_hashed == 1 + 256 + binomial(SEED_BITS, 2)

    def test_enrolled_seed_itself_is_found_at_distance_zero(self, base_seed):
        with build_engine("parallel:sha1,workers=2,bs=2048") as executor:
            result = executor.search(base_seed, sha1(base_seed), 1)
            assert executor.worker_set.batches == 0  # one row: never split
        assert result.found and result.distance == 0

    def test_single_worker_degenerates_to_serial(self, base_seed):
        client_seed = flip_bits(base_seed, [64])
        with build_engine("parallel:sha1,workers=1,bs=2048") as executor:
            result = executor.search(base_seed, sha1(client_seed), 1)
            assert not executor.worker_set.splits  # the device thread itself
        assert result.found

    def test_workers_validation(self):
        with pytest.raises(ValueError):
            build_engine("parallel:sha1,workers=0")
        with pytest.raises(ValueError):
            build_engine("pool:sha1,workers=0")
