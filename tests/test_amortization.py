"""Amortized search pipeline: mask-plan cache, warm workers, Keccak kernel.

The contract under test is the one the benchmark relies on: the
``batch:`` engine's plan cache and the dispatcher's scan threads
change *where* the work happens (once, up front; on every core) but
never *what* the search computes — cached and uncached searches are
byte-identical, the cache honors its memory bound, and the ``pool:``
engine's worker set serves hundreds of searches without leaking
descriptors.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np
import pytest

from repro._bitutils import flip_bits, positions_to_mask_words, words_to_seed
from repro.engines import build_engine
from repro.hashes.batch_sha3 import sha3_256_batch_seeds
from repro.runtime.executor import ITERATOR_CHOICES, BatchSearchExecutor
from repro.runtime.maskplan import (
    MaskPlanCache,
    combination_batches,
    global_plan_cache,
)
from repro.fleet.engine import default_worker_count
from repro.hashes import compiled
from repro.net.errors import ServerClosed

#: Restricting d=2 to this rank range keeps the scalar iterators fast.
D2_RANGE = (0, 2048)


def _result_fingerprint(result):
    """The deterministic protocol surface of a SearchResult."""
    return (
        result.found,
        result.seed,
        result.distance,
        result.seeds_hashed,
        result.timed_out,
        tuple((s.distance, s.seeds_hashed) for s in result.shells),
    )


def _plan_lookups(cache):
    """``(hits, misses)`` the cache has counted; a bypass is a miss."""
    stats = cache.stats()
    return stats["hits"], stats["misses"] + stats["bypasses"]


def _lookups_during(cache, search):
    """``(result, (hits, misses))`` of one search against ``cache``."""
    hits, misses = _plan_lookups(cache)
    result = search()
    after_hits, after_misses = _plan_lookups(cache)
    return result, (after_hits - hits, after_misses - misses)


class TestCachedSearchEquivalence:
    @pytest.mark.parametrize("iterator", ITERATOR_CHOICES)
    def test_cached_and_uncached_results_identical(self, base_seed, iterator):
        """Same search, with and without the plan cache, across iterators."""
        target = hashlib.sha1(b"no such seed").digest()
        plain = BatchSearchExecutor("sha1", batch_size=512, iterator=iterator)
        cached = BatchSearchExecutor(
            "sha1", batch_size=512, iterator=iterator,
            cache=True, plan_cache=MaskPlanCache(max_bytes=1 << 22),
        )
        def search(engine):
            return lambda: engine.search(base_seed, target, 2)

        reference = search(plain)()
        plans = cached.plan_cache
        first, (_hits, first_misses) = _lookups_during(plans, search(cached))
        second, lookups = _lookups_during(plans, search(cached))
        assert _result_fingerprint(first) == _result_fingerprint(reference)
        assert _result_fingerprint(second) == _result_fingerprint(reference)
        # First search built the plans; the second one reused every slice.
        assert first_misses > 0
        assert lookups == (2, 0)  # d=1 and d=2, all hits
        assert plain.plan_cache is None

    @pytest.mark.parametrize("iterator", ITERATOR_CHOICES)
    def test_plan_masks_match_streamed_masks(self, iterator):
        """Cached plan arrays are byte-identical to streamed generation."""
        cache = MaskPlanCache(max_bytes=1 << 22)
        plan, hit = cache.get_or_build(2, *D2_RANGE, 512, iterator)
        assert plan is not None and not hit
        streamed = np.concatenate([
            positions_to_mask_words(positions)
            for positions in combination_batches(2, *D2_RANGE, 512, iterator)
        ])
        assert plan.masks.tobytes() == streamed.tobytes()
        cache.clear()

    def test_found_seed_identical_with_cache(self, planted_pair):
        base_seed, client_seed, distance = planted_pair
        target = hashlib.sha3_256(client_seed).digest()
        plain = BatchSearchExecutor("sha3-256", batch_size=4096)
        cached = BatchSearchExecutor(
            "sha3-256", batch_size=4096,
            cache=True, plan_cache=MaskPlanCache(),
        )
        reference = plain.search(base_seed, target, distance)
        result = cached.search(base_seed, target, distance)
        assert _result_fingerprint(result) == _result_fingerprint(reference)
        assert result.found and result.seed == client_seed


class TestMaskPlanCache:
    def test_eviction_respects_memory_bound(self):
        row_bytes = 32
        cache = MaskPlanCache(max_bytes=256 * row_bytes, max_plan_bytes=256 * row_bytes)
        for lo in range(0, 4096, 256):
            cache.get_or_build(2, lo, lo + 256, 128)
            assert cache.bytes_in_use <= cache.max_bytes
        assert cache.evictions > 0
        assert len(cache) >= 1
        cache.clear()
        assert cache.bytes_in_use == 0 and len(cache) == 0

    def test_oversized_plans_bypass_the_cache(self):
        cache = MaskPlanCache(max_bytes=1 << 20, max_plan_bytes=1 << 10)
        plan, hit = cache.get_or_build(3, 0, 100_000, 4096)
        assert plan is None and not hit
        assert cache.bypasses == 1 and cache.bytes_in_use == 0
        # The search still works without a plan — it streams.
        executor = BatchSearchExecutor(
            "sha1", batch_size=4096, cache=True, plan_cache=cache
        )
        result = executor.search(
            b"\x00" * 32, hashlib.sha1(b"miss").digest(), 1
        )
        assert not result.found and result.seeds_hashed == 1 + 256

    def test_global_cache_is_a_singleton(self):
        assert global_plan_cache() is global_plan_cache()


class TestWarmPool:
    def test_pool_survives_100_searches_without_leaks(self, base_seed):
        """Two host devices, 100 searches, a stable descriptor count."""
        hit_seed = flip_bits(base_seed, [7])
        hit_target = hashlib.sha1(hit_seed).digest()
        miss_target = hashlib.sha1(b"no such seed").digest()
        engine = build_engine("pool:sha1,workers=2,bs=2048")
        try:
            assert not engine.search(base_seed, miss_target, 2).found  # cold
            fd_baseline = len(os.listdir("/proc/self/fd"))
            for i in range(99):
                distance = 2 if i % 10 == 0 else 1
                target = hit_target if i % 2 == 0 else miss_target
                result = engine.search(base_seed, target, distance)
                if i % 2 == 0:
                    assert result.found and result.seed == hit_seed
                else:
                    assert not result.found
                    assert result.seeds_hashed >= 1 + 256
            assert all(d.rows_hashed for d in engine.scheduler.devices)
            assert len(os.listdir("/proc/self/fd")) <= fd_baseline + 2
        finally:
            engine.close()

    def test_pool_close_terminates_workers(self):
        engine = build_engine("pool:sha1,workers=2,bs=1024")
        engine.close()
        with pytest.raises(ServerClosed):
            engine.search(b"\x00" * 32, hashlib.sha1(b"x").digest(), 1)
        engine.close()  # idempotent

    def test_concurrent_searches_share_one_pool(self, base_seed):
        """Two threads, one pair of devices: a hit does not stop the miss."""
        import threading

        hit_seed = flip_bits(base_seed, [3, 40])
        hit_target = hashlib.sha1(hit_seed).digest()
        miss_target = hashlib.sha1(b"no such seed").digest()
        engine = build_engine("pool:sha1,workers=2,bs=2048")
        results: dict[str, object] = {}
        try:
            engine.search(base_seed, miss_target, 1)  # warm up

            def run(name, target):
                results[name] = engine.search(base_seed, target, 2)

            threads = [
                threading.Thread(target=run, args=("hit", hit_target)),
                threading.Thread(target=run, args=("miss", miss_target)),
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            assert results["hit"].found and results["hit"].seed == hit_seed
            assert not results["miss"].found
            # The miss search ran to exhaustion: the hit search's early
            # exit retired its own request only.
            assert results["miss"].seeds_hashed == 1 + 256 + 32640
        finally:
            engine.close()


class TestServerReusesPool:
    def test_server_metrics_and_pool_release(self, small_authority):
        from repro.net.concurrent import ConcurrentCAServer

        authority, client, mask = small_authority
        engine = build_engine(
            "pool", hash_name=authority.hash_name, workers=2, batch_size=8192
        )
        authority.search_service.engine = engine
        with ConcurrentCAServer(authority, scheduler=engine) as server:
            for _ in range(3):
                challenge = authority.issue_challenge(client.client_id)
                digest = client.respond(challenge, reference_mask=mask)
                result = server.submit(client.client_id, digest).result(timeout=60)
                assert result.authenticated
            snapshot = server.metrics.snapshot()
        # Both host devices served the three requests' ranges.
        assert all(d.rows_hashed for d in engine.scheduler.devices)
        assert snapshot["completed"] == 3
        # Exiting the context called server.close(), which closed the
        # dispatcher it was handed.
        with pytest.raises(ServerClosed):
            engine.search(b"\x00" * 32, b"\x00" * 32, 1)


class TestAffinityDefaults:
    def test_default_worker_count_respects_cpuset(self):
        expected = len(os.sched_getaffinity(0))
        assert default_worker_count() == expected
        cores = expected if compiled.load() else 1
        for spec in ("parallel:sha1", "pool:sha1"):
            with build_engine(spec) as engine:
                assert engine.workers == expected
                # One device, hashing on the cpuset's cores.
                (device,) = engine.scheduler.devices
                assert device.workers == cores


class TestSatellites:
    def test_parallel_describe_round_trips_iterator(self):
        """The dispatcher rows make candidates from rank ranges: they take
        no iterator, plan cache or warm-up, and say so by name."""
        for spec, option in (
            ("pool:sha1,cache=no", "cache"),
            ("parallel:sha1,it=gosper", "it"),
            ("sched:sha1,warm=1", "warm"),
        ):
            with pytest.raises(ValueError, match=f"has no option '{option}'"):
                build_engine(spec)
        with build_engine("parallel:sha1,w=2,bs=1024") as engine:
            spec = engine.describe()
        assert spec == "parallel:sha1,workers=2,bs=1024"
        with build_engine(spec) as rebuilt:
            assert rebuilt.describe() == spec

    def test_throughput_probe_breakdown(self):
        probe = BatchSearchExecutor("sha3-256").throughput_probe(
            2000, breakdown=True
        )
        assert set(probe) == {"unrank", "mask", "hash", "compare", "total"}
        assert all(rate > 0 for rate in probe.values())
        # The scalar probe still returns a plain float.
        assert isinstance(
            BatchSearchExecutor("sha1").throughput_probe(2000), float
        )

    def test_keccak_kernel_matches_hashlib_on_random_batches(self, rng):
        for size in (1, 7, 64, 257):
            words = rng.integers(
                0, 1 << 63, size=(size, 4), dtype=np.int64
            ).astype(np.uint64)
            snapshot = words.copy()
            digests = sha3_256_batch_seeds(words)
            again = sha3_256_batch_seeds(words)
            assert np.array_equal(words, snapshot)  # inputs untouched
            assert np.array_equal(digests, again)  # scratch reuse is clean
            for i in range(size):
                seed = words_to_seed(words[i])
                expected = hashlib.sha3_256(seed).digest()
                assert digests[i].tobytes() == expected

    def test_telemetry_hooks_accumulate_amortization(self, base_seed):
        """The plan cache counts each search's look-ups; the results count
        the seeds."""
        cache = MaskPlanCache()
        executor = BatchSearchExecutor(
            "sha1", batch_size=1024, cache=True, plan_cache=cache
        )
        target = hashlib.sha1(b"no such seed").digest()

        def search():
            return executor.search(base_seed, target, 1)

        cold, cold_lookups = _lookups_during(cache, search)
        warm, warm_lookups = _lookups_during(cache, search)
        assert (cold_lookups, warm_lookups) == ((0, 1), (1, 0))
        assert cache.bytes_in_use > 0
        assert cold.seeds_hashed + warm.seeds_hashed == 2 * (1 + 256)

    def test_warm_option_prebuilds_plans(self, base_seed):
        cache = MaskPlanCache()
        executor = BatchSearchExecutor(
            "sha1", batch_size=1024, warm=1, plan_cache=cache
        )
        assert executor.cache  # warm implies cache
        assert cache.misses == 1  # the d=1 full-range plan
        target = hashlib.sha1(b"no such seed").digest()
        _result, lookups = _lookups_during(
            cache, lambda: executor.search(base_seed, target, 1)
        )
        assert lookups == (1, 0)
