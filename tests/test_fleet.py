"""Fault-tolerant multi-device dispatch (repro.fleet).

Six layers of coverage: the replay machinery that re-dispatch rides on
(cursor push-back, order preservation); one device's health lifecycle
(kill, quarantine, probation, reinstatement); the dispatcher's
protocol-level invariants (byte equivalence with the single-device
engine, re-dispatch after a mid-search kill, grace shedding when the
whole fleet is dark); host devices on one or more
cores (the same bytes however the ranges are cut, rank-ordered settle
across devices, nothing left behind); the range a submitting thread
runs itself (one runner per device); and the device-loss storm, on
the storm kit (``conftest.run_device_loss_storm``), that exercises all
of it at once.
"""

import ctypes
import gc
import os
import subprocess
import sys
import threading
import time
from types import SimpleNamespace

import numpy as np
import pytest

from repro._bitutils import SEED_BITS, flip_bits
from repro.devices.flaky import DeviceFailure, FlakyDeviceModel
from repro.engines import build_engine, engine_target
from repro.fleet import FleetDevice, FleetSearchEngine
from repro.fleet.engine import default_worker_count
from repro.combinatorics.binomial import binomial, exhaustive_seed_count
from repro.combinatorics.ranking import unrank_lexicographic_exact
from repro.hashes.registry import get_hash
from repro.reliability.breaker import CircuitBreaker
from repro.runtime.executor import BatchSearchExecutor
from repro.fleet.batcher import BatchSlice, ShellCursor, SliceOutcome
from repro.fleet import batcher
from repro.fleet.dispatcher import FleetScheduler
from repro.hashes import compiled
from repro.net.errors import ServerClosed
from repro.refusals import Refusal, RequestShed

RNG = np.random.default_rng(20260805)
BASE_SEED = RNG.bytes(32)


def _planted(distance, rng):
    positions = sorted(
        int(p) for p in rng.choice(SEED_BITS, size=distance, replace=False)
    )
    return flip_bits(BASE_SEED, positions)


# -- the replay machinery re-dispatch rides on --------------------------


class TestCursorReplay:
    def _cursor(self):
        """A fresh d <= 2 cursor wide enough for shell 2 in one range: it
        starts at shell 2, because shells 0 and 1 are hashed at
        admission and never served."""
        cursor = ShellCursor(2)
        assert cursor.floor == (2, 0)
        return cursor

    def test_shells_are_served_whole_in_rank_order(self):
        """Drained at ragged, changing widths, a d = 3 cursor serves
        shells 2 and 3 whole and contiguous, in ascending rank, each
        range as wide as asked up to its shell's end (wherever that
        falls against a batch), then nothing."""
        cursor = ShellCursor(3)
        widths = (RAGGED_BATCH, 3 * RAGGED_BATCH, 511, 2 * RAGGED_BATCH + 7)
        served, floor = [], (2, 0)
        while not cursor.exhausted:
            assert cursor.floor == floor
            width = widths[len(served) % len(widths)]
            distance, lo, hi = cursor.take(width)
            size = binomial(SEED_BITS, distance)
            assert (distance, lo) == floor and hi == min(lo + width, size)
            floor = (distance + 1, 0) if hi == size else (distance, hi)
            served.append((distance, lo, hi))
        assert cursor.take(RAGGED_BATCH) is None
        assert cursor.floor is None and floor == (4, 0)
        assert served[0] == (2, 0, RAGGED_BATCH)
        # Shell 2 ends inside a range's width: the range stops there.
        assert any(hi == SHELL_2 and hi - lo < widths[i % len(widths)]
                   for i, (_d, lo, hi) in enumerate(served))

    def test_pushed_back_slice_is_served_first_and_byte_identical(self):
        cursor = self._cursor()
        taken = cursor.take(64)
        assert taken == (2, 0, 64)
        cursor.push_back(*taken)
        assert cursor.take(64) == taken
        assert cursor.floor == (2, 64)

    def test_reverse_push_back_restores_original_order(self):
        """Two devices fail in either order: the replay is in rank order."""
        cursor = self._cursor()
        first = cursor.take(32)
        second = cursor.take(32)
        for ranks in reversed([first, second]):
            cursor.push_back(*ranks)
        assert cursor.floor == first[:2]
        assert cursor.take(32) == first
        assert cursor.take(32) == second

    def test_oversized_replay_slice_is_split(self):
        cursor = self._cursor()
        distance, lo, hi = cursor.take(90)
        cursor.push_back(distance, lo, hi)
        head = cursor.take(30)
        assert head == (distance, lo, lo + 30)
        tail = cursor.take(90)
        assert tail == (distance, lo + 30, hi) and hi - lo == 90

    def test_a_replay_keeps_a_drained_cursor_open(self):
        cursor = self._cursor()
        ranks = cursor.take(1 << 15)
        assert ranks == (2, 0, SHELL_2) and cursor.exhausted
        cursor.push_back(*ranks)
        assert not cursor.exhausted
        assert cursor.floor == (2, 0)
        assert cursor.take(1 << 15) == ranks and cursor.exhausted


# -- flaky-device composability (satellite: from_token) -----------------


class TestFlakyFromToken:
    def test_flaky_token_schedules_failure_episodes(self):
        model = FlakyDeviceModel.from_token("flaky-gpu", seed=3)
        episodes = model.injector.episodes
        assert len(episodes) == 1
        lo, hi = episodes[0]
        assert hi - lo == 6  # default episode length

    def test_health_probe_peeks_without_consuming(self):
        model = FlakyDeviceModel.from_token(
            "flaky-cpu", seed=1, episode_length=4
        )
        lo, _hi = model.injector.episodes[0]
        calls_before = model.injector.calls
        assert model.health_probe() == (not lo <= calls_before < 4 + lo)
        assert model.injector.calls == calls_before

    def test_unknown_base_token_rejected(self):
        with pytest.raises(ValueError):
            FlakyDeviceModel.from_token("flaky-quantum")

    def test_registry_spec_composes_mixed_fleet(self):
        """Satellite acceptance: ``fleet:gpu,flaky-apu`` just works."""
        engine = build_engine("fleet:gpu,flaky-apu,hash=sha1,bs=2048")
        try:
            devices = engine.scheduler.devices
            assert [d.name for d in devices] == ["gpu-0", "flaky-apu-1"]
            assert devices[0].model is None
            assert devices[1].injector is not None
        finally:
            engine.close()

    def test_unknown_device_token_rejected_at_build(self):
        for spec in ("fleet:warp-drive,host", "fleet:host,slow-host"):
            with pytest.raises(ValueError):
                build_engine(spec)


# -- one device's health lifecycle --------------------------------------


class TestFleetDevice:
    def _device(self, **kwargs):
        executor = BatchSearchExecutor("sha1", batch_size=1024)
        kwargs.setdefault(
            "breaker",
            CircuitBreaker(failure_threshold=2, recovery_seconds=0.05),
        )
        return FleetDevice("dev-0", executor.algo, **kwargs)

    def test_killed_device_fails_probes_into_quarantine(self):
        device = self._device()
        assert device.probe() and device.health == "healthy"
        device.kill()
        assert not device.probe()
        assert not device.probe()
        assert device.health == "quarantined"
        assert not device.placeable

    def test_revived_device_passes_probation_back_to_healthy(self):
        device = self._device()
        device.kill()
        device.probe()
        device.probe()
        device.revive()
        time.sleep(0.06)  # recovery_seconds elapses -> half-open
        assert device.health == "probation"
        assert device.probe()
        assert device.health == "healthy"

    def test_run_batch_on_killed_device_raises_and_counts(self):
        device = self._device()
        device.kill()
        with pytest.raises(DeviceFailure):
            device.run_batch(())
        assert device.failures == 1
        assert device.batches == 0


# -- dispatcher invariants ----------------------------------------------


@pytest.fixture
def engine():
    engine = FleetSearchEngine("host", "host", hash_name="sha1", batch_size=4096)
    yield engine
    engine.close()


class TestFleetCore:
    def test_byte_identical_to_single_device_engine(self, engine):
        reference = build_engine("batch:sha1,bs=4096")
        rng = np.random.default_rng(7)
        for distance in (0, 1, 2):
            client_seed = _planted(distance, rng)
            target = engine_target(engine, client_seed)
            fleet_result = engine.search(BASE_SEED, target, 2)
            single = reference.search(BASE_SEED, target, 2)
            assert fleet_result.found and single.found
            assert fleet_result.seed == single.seed == client_seed
            assert fleet_result.distance == single.distance == distance
            assert _fingerprint(fleet_result) == _fingerprint(single)

    def test_concurrent_results_stay_byte_identical(self, engine):
        rng = np.random.default_rng(11)
        requests = []
        for index in range(6):
            distance = index % 3
            client_seed = _planted(distance, rng)
            target = engine_target(engine, client_seed)
            requests.append((client_seed, distance, target))
        tickets = [
            engine.submit(BASE_SEED, target, 2, client_id=f"f{i}")
            for i, (_s, _d, target) in enumerate(requests)
        ]
        for ticket, (client_seed, distance, _t) in zip(tickets, requests):
            result = ticket.result(timeout=120)
            assert result.found
            assert result.seed == client_seed
            assert result.distance == distance

    def test_fleet_stats_attached_to_results(self, engine):
        # Shell 2: shells 0 and 1 are hashed at the door.
        client_seed = _planted(2, np.random.default_rng(3))
        target = engine_target(engine, client_seed)
        assert engine.search(BASE_SEED, target, 2).found
        snapshot = engine.scheduler.snapshot()
        names = {d.name for d in engine.scheduler.devices}
        assert set(snapshot["devices"]) == names
        assert sum(d["batches"] for d in snapshot["devices"].values()) >= 1
        assert snapshot["redispatched_chunks"] == 0

    def test_kill_mid_search_redispatches_onto_survivor(self, engine):
        """The tentpole invariant: orphaned chunks replay, result intact."""
        absent = engine_target(engine, RNG.bytes(32))
        ticket = engine.submit(BASE_SEED, absent, 3, client_id="victim-req")
        victim = engine.scheduler.devices[-1].name
        time.sleep(0.05)  # let the devices take some batches first
        engine.scheduler.kill_device(victim)
        result = ticket.result(timeout=120)
        # The exhaustive search still covered every candidate: a clean
        # not-found, not a lie manufactured by the dead device.
        assert result.found is False
        assert result.timed_out is False
        snapshot = engine.scheduler.snapshot()
        assert snapshot["redispatched_chunks"] > 0
        assert snapshot["quarantines"] >= 1
        # Each committed row counted once: a pushed-back range is
        # counted by the device that replays it, not by the dead one.
        assert result.seeds_hashed == exhaustive_seed_count(3)
        reference = build_engine("batch:sha1,bs=4096").search(BASE_SEED, absent, 3)
        assert _fingerprint(result) == _fingerprint(reference)

    def test_whole_fleet_dark_sheds_with_typed_reason(self):
        engine = FleetSearchEngine(
            "host",
            "host",
            hash_name="sha1",
            batch_size=4096,
            heartbeat_seconds=0.01,
            no_device_grace=0.2,
        )
        try:
            absent = engine_target(engine, RNG.bytes(32))
            ticket = engine.submit(BASE_SEED, absent, 3, client_id="doomed")
            for device in engine.scheduler.devices:
                engine.scheduler.kill_device(device.name)
            with pytest.raises(RequestShed) as excinfo:
                ticket.result(timeout=30)
            assert excinfo.value.refusal is Refusal.NO_HEALTHY_DEVICES
            assert (
                engine.scheduler.snapshot()["shed_reasons"][
                    Refusal.NO_HEALTHY_DEVICES.reason
                ]
                >= 1
            )
        finally:
            engine.close(drain=False)

    def test_killed_device_is_quarantined_then_reinstated(self, engine):
        # The monitor thread spins up on first submission.
        client_seed = _planted(1, np.random.default_rng(5))
        assert engine.search(
            BASE_SEED, engine_target(engine, client_seed), 1
        ).found
        victim = engine.scheduler.devices[1].name
        engine.scheduler.kill_device(victim)
        deadline = time.perf_counter() + 10.0
        while time.perf_counter() < deadline:
            if engine.scheduler.device(victim).health == "quarantined":
                break
            time.sleep(0.01)
        assert engine.scheduler.device(victim).health == "quarantined"
        engine.scheduler.revive_device(victim)
        deadline = time.perf_counter() + 10.0
        while time.perf_counter() < deadline:
            if engine.scheduler.device(victim).health == "healthy":
                break
            time.sleep(0.01)
        assert engine.scheduler.device(victim).health == "healthy"
        snapshot = engine.scheduler.snapshot()
        assert snapshot["quarantines"] >= 1
        assert snapshot["reinstatements"] >= 1

    def test_admitted_implies_completed_or_shed(self, engine):
        rng = np.random.default_rng(23)
        tickets = []
        for index in range(6):
            client_seed = _planted(index % 3, rng)
            target = engine_target(engine, client_seed)
            budget = None if index % 2 == 0 else 30.0
            tickets.append(
                engine.submit(
                    BASE_SEED,
                    target,
                    2,
                    time_budget=budget,
                    client_id=f"mix-{index}",
                )
            )
        for ticket in tickets:
            try:
                ticket.result(timeout=120)
            except RequestShed as exc:
                assert exc.reason
        snapshot = engine.scheduler.snapshot()
        assert snapshot["admitted"] == len(tickets)
        assert snapshot["admitted"] == snapshot["completed"] + snapshot["shed"]
        assert snapshot["queue_depth"] == 0


class TestFleetClose:
    def test_close_is_idempotent_and_rejects_new_work(self):
        engine = FleetSearchEngine("host", "host", hash_name="sha1")
        engine.close()
        engine.close()
        with pytest.raises(ServerClosed):
            engine.submit(BASE_SEED, b"\x00" * 20, 1)

    def test_close_drains_in_flight_requests(self):
        engine = FleetSearchEngine(
            "host", "host", hash_name="sha1", batch_size=4096
        )
        client_seed = _planted(1, np.random.default_rng(9))
        target = engine_target(engine, client_seed)
        ticket = engine.submit(BASE_SEED, target, 2, client_id="drain")
        engine.close(drain=True)
        result = ticket.result(timeout=1.0)  # already resolved
        assert result.found and result.seed == client_seed

    def test_close_without_drain_sheds_with_shutdown_reason(self):
        engine = FleetSearchEngine(
            "host", "host", hash_name="sha1", batch_size=4096
        )
        absent = engine_target(engine, RNG.bytes(32))
        tickets = [
            engine.submit(BASE_SEED, absent, 3, client_id=f"s{i}")
            for i in range(3)
        ]
        engine.close(drain=False)
        reasons = set()
        for ticket in tickets:
            assert ticket.done()
            try:
                ticket.result(timeout=1.0)
            except RequestShed as exc:
                reasons.add(exc.reason)
        assert reasons <= {Refusal.SHUTDOWN.reason}
        assert engine.scheduler.snapshot()["queue_depth"] == 0

    @pytest.mark.filterwarnings(
        "ignore::pytest.PytestUnhandledThreadExceptionWarning"
    )
    @pytest.mark.parametrize(
        "spec", ["fleet:host,hash=sha1,bs=4096", "sched:sha1,bs=4096"]
    )
    def test_dying_dispatcher_thread_sheds_instead_of_hanging(
        self, spec, monkeypatch
    ):
        real = batcher.first_matches

        def exploding_scan(algo, fixed_padding, slices, workers=1):
            if threading.current_thread().name.startswith("rbc-fleet-"):
                raise RuntimeError("kernel blew up")  # not a DeviceFailure
            return real(algo, fixed_padding, slices, workers)  # the door

        monkeypatch.setattr(batcher, "first_matches", exploding_scan)
        engine = build_engine(spec)
        absent = engine_target(engine, RNG.bytes(32))
        ticket = engine.submit(BASE_SEED, absent, 2, client_id="orphan")
        with pytest.raises(RequestShed) as excinfo:
            ticket.result(timeout=3)
        assert excinfo.value.refusal is Refusal.SHUTDOWN
        with pytest.raises(ServerClosed):
            engine.submit(BASE_SEED, absent, 1)
        engine.close()  # returns: no thread is left to wait for
        assert engine.scheduler.snapshot()["queue_depth"] == 0

    def test_a_dying_submitter_sheds_and_raises(self, monkeypatch):
        """The same on the thread calling ``submit``, when it runs a
        range itself: the dispatcher closes, its requests are shed as
        ``shutdown``, and ``submit`` raises what the scan raised."""
        real, caller = batcher.first_matches, threading.current_thread()

        def exploding_scan(algo, fixed_padding, slices, workers=1):
            if threading.current_thread() is caller and slices[0].distance >= 2:
                raise RuntimeError("kernel blew up")
            return real(algo, fixed_padding, slices, workers)  # the door

        monkeypatch.setattr(batcher, "first_matches", exploding_scan)
        engine = build_engine(f"fleet:host,hash=sha1,bs={SHELL_2},workers=1")
        absent = engine_target(engine, RNG.bytes(32))
        with pytest.raises(RuntimeError, match="blew up"):
            engine.submit(BASE_SEED, absent, 2, client_id="orphan")
        snapshot = engine.scheduler.snapshot()
        assert snapshot["shed_reasons"] == {Refusal.SHUTDOWN.reason: 1}
        assert snapshot["queue_depth"] == 0
        with pytest.raises(ServerClosed):
            engine.submit(BASE_SEED, absent, 1)
        engine.close()  # returns: no thread is left to wait for

    def test_describe_round_trips_the_spec(self):
        engine = FleetSearchEngine(
            "host", "host", hash_name="sha1", batch_size=4096
        )
        try:
            assert engine.describe().startswith("fleet:host,host")
            rebuilt = build_engine(engine.describe())
            try:
                assert rebuilt.batch_size == engine.batch_size
                assert len(rebuilt.scheduler.devices) == len(
                    engine.scheduler.devices
                )
            finally:
                rebuilt.close()
        finally:
            engine.close()

    def test_default_fleet_is_one_host(self):
        """One ``host`` token: one device hashing on every core of the
        cpuset (one core without the compiled kernel)."""
        engine = FleetSearchEngine(hash_name="sha1")
        try:
            assert engine.describe().startswith("fleet:host,hash=")
            assert [d.name for d in engine.scheduler.devices] == ["host-0"]
            assert engine.workers == default_worker_count()
            assert [d.workers for d in engine.scheduler.devices] == [_cores()]
        finally:
            engine.close()


# -- shell 0 at the door -------------------------------------------------


def _device_work(snapshot):
    """Rows hashed and batches run, per device."""
    return {
        name: (device["rows_hashed"], device["batches"])
        for name, device in snapshot["devices"].items()
    }


class TestShellZeroAtTheDoor:
    """``submit`` hashes shell 0, the enrolled seed itself, on the
    calling thread: a depth-0 answer is settled before ``submit``
    returns, by the scan every device uses, and touches no device."""

    def test_a_d0_hit_and_an_md0_miss_touch_no_device(self, engine):
        warm = engine_target(engine, _planted(1, np.random.default_rng(4)))
        assert engine.search(BASE_SEED, warm, 1).found  # threads started
        before = engine.scheduler.snapshot()
        hit = engine.submit(BASE_SEED, engine_target(engine, BASE_SEED), 2)
        miss = engine.submit(BASE_SEED, warm, 0)
        assert hit.done() and miss.done()
        after = engine.scheduler.snapshot()
        assert _device_work(after) == _device_work(before)
        found, absent = hit.result(), miss.result()
        assert (found.found, found.seed, found.distance) == (True, BASE_SEED, 0)
        assert (absent.found, absent.timed_out) == (False, False)
        for result in (found, absent):
            assert result.seeds_hashed == 1
            assert [(s.distance, s.seeds_hashed) for s in result.shells] == [
                (0, 1)
            ]
        moved = {
            key: after[key] - before[key]
            for key in ("admitted", "completed", "found", "shed")
        }
        assert moved == {"admitted": 2, "completed": 2, "found": 1, "shed": 0}
        assert after["queue_depth"] == 0
        assert after["peak_queue_depth"] == before["peak_queue_depth"]
        tenant_rows = [s["tenants"]["default"]["rows"] for s in (before, after)]
        assert tenant_rows[1] - tenant_rows[0] == 2

    @pytest.mark.parametrize("kernel", ["compiled", "hashlib"])
    @pytest.mark.parametrize("hash_name", ["sha1", "sha3-256"])
    def test_same_bytes_as_batch(self, hash_name, kernel, monkeypatch):
        """A d = 0 hit, a d <= 0 miss, a d <= 1 miss and hits at d = 1
        and 2 answer as ``batch:`` does, on either scan."""
        if kernel == "hashlib":
            monkeypatch.setattr(compiled, "load", lambda: None)
        reference = build_engine(f"batch:{hash_name},bs={RAGGED_BATCH}")
        spec = f"fleet:host,hash={hash_name},bs={RAGGED_BATCH}"
        with build_engine(spec) as engine:
            cases = {
                "d0 hit": (BASE_SEED, 2),
                "md0 miss": (RNG.bytes(32), 0),
                "md1 miss": (RNG.bytes(32), 1),
                "d1 hit": (flip_bits(BASE_SEED, [200]), 1),
                "d2 hit": (
                    flip_bits(
                        BASE_SEED,
                        unrank_lexicographic_exact(SEED_BITS, 2, 3 * RAGGED_BATCH),
                    ),
                    2,
                ),
            }
            for where, (seed, max_distance) in cases.items():
                target = engine_target(engine, seed)
                result = engine.search(BASE_SEED, target, max_distance)
                expected = reference.search(BASE_SEED, target, max_distance)
                assert result.found is where.endswith("hit"), where
                assert _fingerprint(result) == _fingerprint(expected), where

    @pytest.mark.parametrize("kernel", ["compiled", "hashlib"])
    @pytest.mark.parametrize("batch_size", [100, 256])
    def test_shell_1_counts_as_batch_cuts_it(self, batch_size, kernel, monkeypatch):
        """Shell 1 is one scan at the door but is counted in ``batch_size``
        batches: a hit at rank r counts ``min(256, (r // bs + 1) * bs)``
        seeds of it, as ``batch:`` does, and touches no device."""
        if kernel == "hashlib":
            monkeypatch.setattr(compiled, "load", lambda: None)
        reference = build_engine(f"batch:sha1,bs={batch_size}")
        with build_engine(f"fleet:host,hash=sha1,bs={batch_size}") as engine:
            for rank in (0, 99, 100, 199, 200, 255, None):
                seed = RNG.bytes(32) if rank is None else flip_bits(BASE_SEED, [rank])
                target = engine_target(engine, seed)
                ticket = engine.submit(BASE_SEED, target, 2 if rank is not None else 1)
                assert ticket.done(), rank
                result = ticket.result()
                expected = reference.search(
                    BASE_SEED, target, 2 if rank is not None else 1
                )
                assert _fingerprint(result) == _fingerprint(expected), rank
                if rank is not None:
                    counted = min(256, (rank // batch_size + 1) * batch_size)
                    assert result.seeds_hashed == 1 + counted
            assert sum(_rows(engine).values()) == 0

    def test_a_dark_fleet_answers_a_d0_hit_and_sheds_the_rest(self):
        """With every device killed, shells 0 and 1 are still answered;
        a request that needs shell 2 waits out the grace window and is
        shed."""
        engine = FleetSearchEngine(
            "host", workers=2, hash_name="sha1", batch_size=4096,
            heartbeat_seconds=0.01, no_device_grace=0.2,
        )
        try:
            for device in engine.scheduler.devices:
                engine.scheduler.kill_device(device.name)
            hit = engine.submit(BASE_SEED, engine_target(engine, BASE_SEED), 2)
            assert hit.done() and hit.result().distance == 0
            near = flip_bits(BASE_SEED, [3])
            hit = engine.submit(BASE_SEED, engine_target(engine, near), 2)
            assert hit.done()
            assert (hit.result().seed, hit.result().distance) == (near, 1)
            deeper = engine_target(engine, flip_bits(BASE_SEED, [3, 4]))
            ticket = engine.submit(BASE_SEED, deeper, 2)
            with pytest.raises(RequestShed) as excinfo:
                ticket.result(timeout=30)
            assert excinfo.value.refusal is Refusal.NO_HEALTHY_DEVICES
            assert sum(_rows(engine).values()) == 0
        finally:
            engine.close(drain=False)

    def test_serving_traffic_never_wakes_the_monitor(self):
        """Submissions and commits do not cut the heartbeat short, so
        they cost no probe; only the heartbeat, a kill, a revive or a
        close runs the monitor."""
        with FleetSearchEngine(
            "host", workers=2, hash_name="sha1", batch_size=4096,
            heartbeat_seconds=3600,
        ) as engine:
            rng = np.random.default_rng(31)
            targets = [
                engine_target(engine, _planted(index % 3, rng))
                for index in range(50)
            ]
            assert engine.search(BASE_SEED, targets[1], 2).found
            probes = engine.scheduler.snapshot()["probes"]
            for target in targets:
                assert engine.search(BASE_SEED, target, 2).found
            assert engine.scheduler.snapshot()["probes"] == probes

    def test_a_few_row_batch_barely_moves_the_throughput_estimate(self):
        """The admission estimate weighs each committed batch by its rows:
        20 one-row batches after one full one leave it near the full
        batch's rate, and a second full batch still moves it by 0.3 of
        the gap."""
        scheduler = FleetScheduler(
            [FleetDevice("dev", get_hash("sha1"))],
            BatchSearchExecutor(hash_name="sha1", batch_size=16384),
        )
        device = scheduler.devices[0]
        settled = SimpleNamespace(retired=True)

        def commit(rows, seconds):
            outcome = SliceOutcome(
                key=settled, distance=1, rows=rows, seed=None, seconds=seconds
            )
            scheduler._commit(device, [outcome])
            return scheduler.snapshot()["throughput"]

        full = commit(16384, 16384 / 4e6)
        assert full == pytest.approx(4e6)
        for _ in range(20):
            late = commit(1, 1e-4)
        assert late >= 0.9 * full
        assert commit(16384, 16384 / 2e6) == pytest.approx(
            late + 0.3 * (2e6 - late)
        )


# -- host devices, on one core or several --------------------------------

#: Odd and not a multiple of 3, and so is what it leaves of shell 2
#: (13 batches, then 1 999 rows): no range ends on a round number.
RAGGED_BATCH = 2357
SHELL_2 = SEED_BITS * (SEED_BITS - 1) // 2


def _fingerprint(result):
    """Everything of a result that must not depend on who hashed it."""
    return (
        result.found,
        result.seed,
        result.distance,
        result.seeds_hashed,
        result.timed_out,
        tuple((s.distance, s.seeds_hashed) for s in result.shells),
    )


def _device_threads():
    """The live device threads of every fleet in this process."""
    return {
        t for t in threading.enumerate()
        if t.name.startswith("rbc-fleet-") and t.name != "rbc-fleet-monitor"
    }


def _rows(engine):
    """Rows each device of the engine has hashed so far."""
    return {d.name: d.rows_hashed for d in engine.scheduler.devices}


def _cores(workers=None):
    """Cores a ``host`` device hashes on: ``workers`` (default: the
    cpuset) with the compiled kernel, one on ``hashlib``."""
    return (workers or default_worker_count()) if compiled.load() else 1


class TestWorkerEquivalence:
    """Same found / seed / distance / seeds_hashed / shells as ``batch:``
    on a host hashing on 1, 2 or 3 cores (3 oversubscribes this host on
    purpose), and on several host devices at once, however the ranges
    were cut.

    ``seeds_hashed`` counts committed ranges only: those below the one
    holding the match, and that one up to the end of the match's
    ``batch_size`` batch. Rows hashed past the match are dropped, and
    show in the devices' ``rows_hashed`` and nowhere else."""

    #: Where a planted seed lies in shell 2, against ``RAGGED_BATCH``.
    RANKS = {
        "first row of a batch": 3 * RAGGED_BATCH,
        "mid-batch row": 3 * RAGGED_BATCH + RAGGED_BATCH // 2,
        "last row of a batch": 4 * RAGGED_BATCH - 1,
        "first row of the next batch": 4 * RAGGED_BATCH,
        "ragged final batch, first row": SHELL_2 - SHELL_2 % RAGGED_BATCH,
        "ragged final batch, last row": SHELL_2 - 1,
    }

    def _same_bytes(self, engine, hash_name):
        """Search every planted rank and an absent seed; how many of
        the searches ran on more than one device."""
        assert SHELL_2 % RAGGED_BATCH % 6 in (1, 5)
        reference = build_engine(f"batch:{hash_name},bs={RAGGED_BATCH},cache=yes")
        targets = {
            where: engine_target(
                engine,
                flip_bits(BASE_SEED, unrank_lexicographic_exact(SEED_BITS, 2, rank)),
            )
            for where, rank in self.RANKS.items()
        }
        targets["absent"] = engine_target(engine, RNG.bytes(32))
        spread = 0
        for where, target in targets.items():
            before = _rows(engine)
            result = engine.search(BASE_SEED, target, 2)
            expected = reference.search(BASE_SEED, target, 2)
            assert result.found is (where != "absent"), where
            assert _fingerprint(result) == _fingerprint(expected), where
            after = _rows(engine)
            spread += sum(after[n] > before[n] for n in after) >= 2
        return spread

    @pytest.mark.parametrize("hash_name", ["sha1", "sha3-256"])
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_same_bytes_wherever_the_seed_lies(self, hash_name, workers):
        """One device on ``workers`` cores: its batches have room for
        ``workers`` batches' rows, so ranges end off the batch cuts."""
        spec = f"pool:{hash_name},workers={workers},bs={RAGGED_BATCH}"
        with build_engine(spec) as engine:
            (device,) = engine.scheduler.devices
            assert device.workers == _cores(workers)
            self._same_bytes(engine, hash_name)

    @pytest.mark.parametrize("hash_name", ["sha1", "sha3-256"])
    def test_same_bytes_across_host_devices(self, hash_name):
        """Three one-core host devices: one search's ranges run on
        several of them at once and still commit in rank order."""
        spec = f"fleet:host,host,host,hash={hash_name},bs={RAGGED_BATCH},workers=1"
        with build_engine(spec) as engine:
            assert len(engine.scheduler.devices) == 3
            assert self._same_bytes(engine, hash_name) > 0

    @pytest.mark.parametrize("hash_name", ["sha1", "sha3-256"])
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_same_bytes_deep_in_shell_3(self, hash_name, workers):
        """Shell 3 (2 763 520 ranks) is cut into batches from its rank 0
        too, so a match deep in it counts the seeds ``batch:`` counts."""
        reference = build_engine(f"batch:{hash_name},bs={RAGGED_BATCH}")
        spec = f"pool:{hash_name},workers={workers},bs={RAGGED_BATCH}"
        with build_engine(spec) as engine:
            for rank in (125_615, 200_000):
                seed = flip_bits(
                    BASE_SEED, unrank_lexicographic_exact(SEED_BITS, 3, rank)
                )
                target = engine_target(engine, seed)
                result = engine.search(BASE_SEED, target, 3)
                expected = reference.search(BASE_SEED, target, 3)
                assert result.seed == seed, rank
                assert _fingerprint(result) == _fingerprint(expected), rank

    def test_a_lower_match_on_a_slow_device_wins(self, monkeypatch):
        """The range holding rank 5 of shell 2 is still hashing on one
        host device when the next range, holding a (forced) match at its
        row 7, has finished on the other: the request waits and settles
        on the lower rank, the one an in-order scan finds."""
        real = batcher.first_matches
        lower, higher = (2, 0), (2, 1024)
        tickets = []

        def scan(algo, fixed_padding, slices, workers=1):
            found = real(algo, fixed_padding, slices, workers)
            for index, piece in enumerate(slices):
                if (piece.distance, piece.lo) == higher:
                    found[index] = (7, piece.rows)
                elif (piece.distance, piece.lo) == lower:
                    # Slowed until the higher match is hashed and waits.
                    deadline = time.perf_counter() + 30
                    while not (
                        tickets
                        and any(r[:2] == higher for r, _o in tickets[0].hashed)
                    ):
                        assert time.perf_counter() < deadline
                        time.sleep(0.001)
                    assert not tickets[0].done()
                    found[index] = (5, piece.rows)
            return found

        monkeypatch.setattr(batcher, "first_matches", scan)
        with FleetSearchEngine(
            "host", "host", workers=1, hash_name="sha1", batch_size=1024
        ) as engine:
            tickets.append(
                engine.submit(BASE_SEED, engine_target(engine, RNG.bytes(32)), 2)
            )
            result = tickets[0].result(timeout=60)
            rows = sum(_rows(engine).values())
        assert result.found and result.distance == 2
        assert result.seed == flip_bits(
            BASE_SEED, unrank_lexicographic_exact(SEED_BITS, 2, 5)
        )
        assert result.seeds_hashed == 1 + 256 + 1024
        # Shells 0 and 1 were hashed at the door; the higher range was
        # dropped.
        assert rows >= 1024 + 1024

    def test_a_range_that_does_not_fit_waits_for_the_next_batch(
        self, monkeypatch
    ):
        """Two equal d <= 2 searches reach shell 2 together on one
        device, so a 40 000-row batch holds one's 32 640-row shell and
        has 7 360 rows left for the other's, which rides the batch cut
        to those rows. Its match, in the cut part, still counts up to
        the end of its 40 000-row batch, the shell's end: 1 + 256 +
        32 640 seeds hashed, as ``batch:`` says, not 1 + 256 + 7 360.

        The blocker fits one range on the idle device, so its submitter
        runs it; the two searches, submitted while it holds the device,
        are pulled by the device's thread after its commit."""
        real = batcher.first_matches
        entered, queued = threading.Event(), threading.Event()
        cuts, scanners, blockers = [], [], []

        def scan(algo, fixed_padding, slices, workers=1):
            # Shells 0 and 1 are the door's. The first range of shell 2,
            # the blocker's, is held until both searches are queued
            # behind it.
            if slices[0].distance >= 2:
                cuts.append([piece.rows for piece in slices])
                scanners.append(threading.current_thread().name)
                if len(cuts) == 1:
                    entered.set()
                    assert queued.wait(30)
            return real(algo, fixed_padding, slices, workers)

        monkeypatch.setattr(batcher, "first_matches", scan)
        seed = flip_bits(BASE_SEED, unrank_lexicographic_exact(SEED_BITS, 2, 5))
        reference = build_engine("batch:sha1,bs=40000")
        with FleetSearchEngine(
            "host", workers=1, hash_name="sha1", batch_size=40000
        ) as engine:
            target = engine_target(engine, seed)
            absent = engine_target(engine, RNG.bytes(32))
            submitter = threading.Thread(
                target=lambda: blockers.append(engine.submit(BASE_SEED, absent, 2)),
                name="submitter",
            )
            submitter.start()
            assert entered.wait(30)
            tickets = [engine.submit(BASE_SEED, target, 2) for _ in range(2)]
            assert not any(ticket.done() for ticket in tickets)
            queued.set()
            submitter.join(60)
            results = [ticket.result(timeout=60) for ticket in tickets]
            (blocker,) = blockers
            assert blocker.done() and not blocker.result().found
        expected = _fingerprint(reference.search(BASE_SEED, target, 2))
        assert expected[3] == 1 + 256 + SHELL_2
        assert [_fingerprint(result) for result in results] == [expected] * 2
        assert cuts[1] == [SHELL_2, 40000 - SHELL_2]
        assert scanners[:2] == ["submitter", "rbc-fleet-host-0"]

    def test_concurrent_scans_each_count_and_answer(self):
        """Two caller threads' searches on three host devices that share
        the kernel's one pool (two of them find it taken and scan alone),
        the interpreter switching as often as it allows: every search
        settles on its own row, and each committed row is counted once."""
        rows = (0, 511, 512, 1023, 2047)
        reference = build_engine("batch:sha1,bs=512")
        answers, searches = [], 20
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            spec = "fleet:host,host,host,hash=sha1,bs=512,workers=2"
            with build_engine(spec) as engine:
                targets = [
                    engine_target(engine, flip_bits(
                        BASE_SEED, unrank_lexicographic_exact(SEED_BITS, 2, rank)
                    ))
                    for rank in rows
                ]

                def search():
                    for index in range(searches):
                        target = targets[index % len(rows)]
                        answers.append(
                            (engine.search(BASE_SEED, target, 2), target)
                        )

                callers = [threading.Thread(target=search) for _ in range(2)]
                for caller in callers:
                    caller.start()
                for caller in callers:
                    caller.join(timeout=120)
                assert not any(caller.is_alive() for caller in callers)
                snapshot = engine.scheduler.snapshot()
        finally:
            sys.setswitchinterval(interval)
        assert len(answers) == snapshot["completed"] == 2 * searches
        expected = {
            target: _fingerprint(reference.search(BASE_SEED, target, 2))
            for target in targets
        }
        assert all(_fingerprint(r) == expected[t] for r, t in answers)
        committed = sum(tenant["rows"] for tenant in snapshot["tenants"].values())
        assert committed == sum(result.seeds_hashed for result, _t in answers)

    def test_two_matches_in_one_fused_batch(self, monkeypatch):
        """Two requests' slices in one batch of a two-core device: each
        finds its own seed and rank, scanned from the calling thread (the
        pool's helpers are C threads), and counts its whole range."""
        algo = get_hash("sha1")
        real, threads = batcher.first_matches, []

        def scan(*args):
            threads.append(threading.current_thread())
            return real(*args)

        monkeypatch.setattr(batcher, "first_matches", scan)
        rng = np.random.default_rng(5)
        bases = [rng.bytes(32) for _ in range(2)]
        slices, wanted = [], []
        for key, base, lo, hi, rank in (
            ("a", bases[0], 0, 1000, 999),
            ("b", bases[1], 1000, 3000, 1500),
        ):
            seed = flip_bits(base, unrank_lexicographic_exact(SEED_BITS, 2, rank))
            wanted.append(seed)
            slices.append(
                BatchSlice(
                    key, 2, lo, hi, base, algo.hash_seed(seed), ctypes.c_uint8(0)
                )
            )
        device = FleetDevice("host-0", algo, workers=2)
        outcomes = device.run_batch(tuple(slices))
        assert [o.key for o in outcomes] == ["a", "b"]
        assert [o.seed for o in outcomes] == wanted
        assert [o.rank for o in outcomes] == [999, 1500]
        assert [o.rows for o in outcomes] == [1000, 2000]
        assert device.batches == device.shared_batches == 1
        assert device.rows_hashed == 3000
        assert threads == [threading.current_thread()]


class TestTheStopByte:
    """A retired request's range still running on a device stops at its
    next eight-row group (the stop byte ``_retire_locked`` sets, §4.4):
    it counts the rows it scanned, here none, so neither ``rows_hashed``
    nor the fleet's or the device's rate estimate moves. No sleeps: the
    held scan waits on an Event set after its request retired.

    Shell 2 (32 640 ranks) and shell 3 (2 763 520) are one range each at
    this width, so on two host devices one scans shell 2 while the other
    holds shell 3 (on both cores, through the kernel's pool)."""

    def _serve(self, monkeypatch, engine, shell_2_waits):
        real = batcher.first_matches
        entered, release, committed = (threading.Event() for _ in range(3))
        held = []

        def scan(algo, fixed_padding, slices, workers=1):
            if any(piece.distance == 3 for piece in slices):
                held.append(engine.scheduler.device(
                    threading.current_thread().name.removeprefix("rbc-fleet-")
                ))
                entered.set()
                assert release.wait(30)
            elif any(piece.distance == 2 for piece in slices) and shell_2_waits:
                assert entered.wait(30)
            return real(algo, fixed_padding, slices, workers)

        monkeypatch.setattr(batcher, "first_matches", scan)
        real_commit, outcomes = engine.scheduler._commit, []

        def commit(device, batch):
            real_commit(device, batch)
            if any(outcome.distance == 3 for outcome in batch):
                outcomes.extend(batch)
                committed.set()

        monkeypatch.setattr(engine.scheduler, "_commit", commit)
        return held, entered, release, committed, outcomes

    def _assert_nothing_counted(self, engine, held, release, committed, outcomes):
        (device,) = held
        before = engine.scheduler.snapshot()
        release.set()
        assert committed.wait(30)
        after = engine.scheduler.snapshot()
        ((outcome),) = outcomes
        assert (outcome.distance, outcome.rows, outcome.seed) == (3, 0, None)
        assert after["throughput"] == before["throughput"]
        moved, still = after["devices"][device.name], before["devices"][device.name]
        assert moved["batches"] == still["batches"] + 1
        for key in ("rows_hashed", "ewma_rate"):
            assert moved[key] == still[key], key

    @pytest.mark.parametrize("hash_name", ["sha1", "sha3-256"])
    def test_a_match_stops_the_range_running_elsewhere(self, monkeypatch, hash_name):
        with FleetSearchEngine(
            "host", "host", workers=2, hash_name=hash_name, batch_size=1 << 22,
        ) as engine:
            held, entered, release, committed, outcomes = self._serve(
                monkeypatch, engine, shell_2_waits=True
            )
            try:
                seed = flip_bits(
                    BASE_SEED, unrank_lexicographic_exact(SEED_BITS, 2, 5)
                )
                ticket = engine.submit(BASE_SEED, engine_target(engine, seed), 3)
                result = ticket.result(timeout=60)
                assert (result.seed, result.seeds_hashed) == (seed, 1 + 256 + SHELL_2)
                self._assert_nothing_counted(
                    engine, held, release, committed, outcomes
                )
            finally:
                release.set()

    def test_a_budget_expiry_stops_the_range_running(self, monkeypatch):
        with FleetSearchEngine(
            "host", "host", workers=2, hash_name="sha1", batch_size=1 << 22,
        ) as engine:
            held, entered, release, committed, outcomes = self._serve(
                monkeypatch, engine, shell_2_waits=False
            )
            try:
                absent = engine_target(engine, RNG.bytes(32))
                ticket = engine.submit(BASE_SEED, absent, 3, time_budget=0.5)
                assert entered.wait(30)
                result = ticket.result(timeout=60)
                assert result.timed_out and not result.found
                self._assert_nothing_counted(
                    engine, held, release, committed, outcomes
                )
            finally:
                release.set()


class TestOneRangeOnTheSubmittingThread:
    """A request whose remaining rows fit one range — a d <= 2 miss at
    the door, shell 2's 32 640 ranks within a device's room — is hashed
    by the thread calling ``submit`` on a free device: it is settled
    when ``submit`` returns, equals ``batch:``, and wakes no device
    thread. Anything else reaches the device threads as before."""

    #: Room for shell 2 with the compiled kernel (2 cores) or without (1).
    SPEC = "fleet:host,hash={},bs=32768,workers=2"

    @staticmethod
    def _scans(monkeypatch, hold=None):
        """Record the thread and ranks of every range past the door;
        ``hold(slices)`` runs first, on the scanning thread."""
        real, scans = batcher.first_matches, []

        def scan(algo, fixed_padding, slices, workers=1):
            if slices[0].distance >= 2:
                scans.append((
                    threading.current_thread().name,
                    [(p.distance, p.lo, p.hi) for p in slices],
                ))
                if hold is not None:
                    hold(slices)
            return real(algo, fixed_padding, slices, workers)

        monkeypatch.setattr(batcher, "first_matches", scan)
        return scans

    @pytest.mark.parametrize("hash_name", ["sha1", "sha3-256"])
    def test_settles_inside_submit_on_the_calling_thread(
        self, hash_name, monkeypatch
    ):
        scans = self._scans(monkeypatch)
        reference = build_engine(f"batch:{hash_name},bs=32768")
        with build_engine(
            self.SPEC.format(hash_name) + ",heartbeat_seconds=3600"
        ) as engine:
            wake = engine.scheduler._wake
            notified = []
            real_notify = wake.notify_all
            monkeypatch.setattr(
                wake, "notify_all", lambda: notified.append(1) or real_notify()
            )
            cases = {
                "d <= 2 miss": RNG.bytes(32),
                "first rank of shell 2": flip_bits(
                    BASE_SEED, unrank_lexicographic_exact(SEED_BITS, 2, 0)
                ),
                "last rank of shell 2": flip_bits(
                    BASE_SEED, unrank_lexicographic_exact(SEED_BITS, 2, SHELL_2 - 1)
                ),
            }
            for where, seed in cases.items():
                target = engine_target(engine, seed)
                before = len(scans)
                ticket = engine.submit(BASE_SEED, target, 2)
                assert ticket.done(), where
                assert scans[before:] == [
                    (threading.current_thread().name, [(2, 0, SHELL_2)])
                ], where
                expected = reference.search(BASE_SEED, target, 2)
                assert _fingerprint(ticket.result()) == _fingerprint(expected), where
            snapshot = engine.scheduler.snapshot()
            assert notified == []  # until the close
        assert snapshot["devices"]["host-0"]["batches"] == len(cases)
        assert snapshot["queue_depth"] == 0

    @pytest.mark.parametrize("room", [SHELL_2, SHELL_2 - 1])
    def test_the_room_decides(self, room, monkeypatch):
        """Shell 2 in a room of 32 640 rows is one range, run by the
        submitter; one row fewer, and the device thread pulls the first
        of two ranges."""
        scans = self._scans(monkeypatch)
        reference = build_engine(f"batch:sha1,bs={room}")
        with FleetSearchEngine(
            "host", workers=1, hash_name="sha1", batch_size=room
        ) as engine:
            target = engine_target(engine, RNG.bytes(32))
            ticket = engine.submit(BASE_SEED, target, 2)
            settled_in_submit = ticket.done()
            result = ticket.result(timeout=60)
        assert _fingerprint(result) == _fingerprint(
            reference.search(BASE_SEED, target, 2)
        )
        if room == SHELL_2:
            assert settled_in_submit
            assert scans == [(threading.current_thread().name, [(2, 0, SHELL_2)])]
        else:
            assert scans == [
                ("rbc-fleet-host-0", [(2, 0, room)]),
                ("rbc-fleet-host-0", [(2, room, SHELL_2)]),
            ]

    def test_a_deeper_request_takes_the_device_thread(self, monkeypatch):
        """A d <= 3 request is more than one range however large the
        room: its shell 2 is pulled by the device thread."""
        scans = self._scans(monkeypatch)
        seed = flip_bits(BASE_SEED, unrank_lexicographic_exact(SEED_BITS, 2, 0))
        with FleetSearchEngine(
            "host", workers=1, hash_name="sha1", batch_size=1 << 22
        ) as engine:
            result = engine.submit(
                BASE_SEED, engine_target(engine, seed), 3
            ).result(timeout=60)
        assert (result.seed, result.distance) == (seed, 2)
        assert scans == [("rbc-fleet-host-0", [(2, 0, SHELL_2)])]

    def test_a_request_behind_an_inline_range_is_pulled_after_its_commit(
        self, monkeypatch
    ):
        """A submitter's range holds the device; a request submitted
        meanwhile is queued, and the device's thread pulls it once that
        range has committed."""
        entered, release = threading.Event(), threading.Event()
        held, committed_first = [], []

        def hold(slices):
            if not held:
                held.append(slices[0].key)
                entered.set()
                assert release.wait(30)
            else:
                committed_first.append(held[0].retired)

        scans = self._scans(monkeypatch, hold)
        seed = flip_bits(BASE_SEED, unrank_lexicographic_exact(SEED_BITS, 2, 77))
        reference = build_engine(f"batch:sha1,bs={SHELL_2}")
        blockers = []
        with FleetSearchEngine(
            "host", workers=1, hash_name="sha1", batch_size=SHELL_2
        ) as engine:
            absent, target = (
                engine_target(engine, RNG.bytes(32)), engine_target(engine, seed)
            )
            submitter = threading.Thread(
                target=lambda: blockers.append(engine.submit(BASE_SEED, absent, 2)),
                name="submitter",
            )
            submitter.start()
            assert entered.wait(30)
            ticket = engine.submit(BASE_SEED, target, 2)
            assert not ticket.done()
            release.set()
            submitter.join(60)
            result = ticket.result(timeout=60)
        assert blockers[0].done() and not blockers[0].result().found
        assert [name for name, _r in scans] == ["submitter", "rbc-fleet-host-0"]
        assert committed_first == [True]
        assert _fingerprint(result) == _fingerprint(
            reference.search(BASE_SEED, target, 2)
        )

    def test_concurrent_submitters_run_the_device_one_at_a_time(
        self, monkeypatch
    ):
        """Four caller threads on one device, the interpreter switching
        as often as it allows: a range is scanned by a submitter or by
        the device thread, never by two threads at once, and every
        search equals ``batch:`` with each committed row counted once."""
        real, guard = batcher.first_matches, threading.Lock()
        running, peak, scanners = [0], [0], set()

        def scan(algo, fixed_padding, slices, workers=1):
            if slices[0].distance < 2:
                return real(algo, fixed_padding, slices, workers)
            with guard:
                running[0] += 1
                peak[0] = max(peak[0], running[0])
                scanners.add(threading.current_thread().name)
            try:
                return real(algo, fixed_padding, slices, workers)
            finally:
                with guard:
                    running[0] -= 1

        monkeypatch.setattr(batcher, "first_matches", scan)
        reference = build_engine("batch:sha1,bs=32768")
        ranks = (0, 5000, SHELL_2 - 1, None)
        answers, searches = [], 10
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with build_engine(self.SPEC.format("sha1")) as engine:
                targets = [
                    engine_target(engine, RNG.bytes(32) if rank is None else flip_bits(
                        BASE_SEED, unrank_lexicographic_exact(SEED_BITS, 2, rank)
                    ))
                    for rank in ranks
                ]

                def search(offset):
                    for index in range(searches):
                        target = targets[(offset + index) % len(targets)]
                        answers.append(
                            (engine.search(BASE_SEED, target, 2), target)
                        )

                callers = [
                    threading.Thread(target=search, args=(i,), name=f"caller-{i}")
                    for i in range(4)
                ]
                for caller in callers:
                    caller.start()
                for caller in callers:
                    caller.join(timeout=120)
                assert not any(caller.is_alive() for caller in callers)
                snapshot = engine.scheduler.snapshot()
        finally:
            sys.setswitchinterval(interval)
        assert peak[0] == 1
        assert any(name.startswith("caller-") for name in scanners)
        assert len(answers) == snapshot["completed"] == 4 * searches
        expected = {
            target: _fingerprint(reference.search(BASE_SEED, target, 2))
            for target in targets
        }
        assert all(_fingerprint(r) == expected[t] for r, t in answers)
        committed = sum(tenant["rows"] for tenant in snapshot["tenants"].values())
        assert committed == sum(result.seeds_hashed for result, _t in answers)

    def test_a_device_failure_in_the_submitters_range_is_redispatched(
        self, monkeypatch
    ):
        """A ``flaky-host`` whose failure episode starts at the
        submitter's range: the range is pushed back, and the device's
        thread replays it once the episode has passed."""
        scans = self._scans(monkeypatch)
        seed = flip_bits(BASE_SEED, unrank_lexicographic_exact(SEED_BITS, 2, 4321))
        reference = build_engine(f"batch:sha1,bs={SHELL_2}")
        with FleetSearchEngine(
            "flaky-host", workers=1, hash_name="sha1", batch_size=SHELL_2,
            failure_threshold=100,
        ) as engine:
            (device,) = engine.scheduler.devices
            start, end = device.injector.episodes[0]
            absent = engine_target(engine, RNG.bytes(32))
            for _ in range(start):  # one inline batch each, all healthy
                assert engine.submit(BASE_SEED, absent, 2).done()
            target = engine_target(engine, seed)
            result = engine.submit(BASE_SEED, target, 2).result(timeout=60)
            snapshot = engine.scheduler.snapshot()
        assert _fingerprint(result) == _fingerprint(
            reference.search(BASE_SEED, target, 2)
        )
        assert device.failures == snapshot["redispatched_chunks"] == end - start
        names = [name for name, _r in scans]
        assert names == [threading.current_thread().name] * start + [
            "rbc-fleet-flaky-host-0"
        ]


_SHM_SCRIPT = """
import os
from repro.engines import build_engine, engine_target

def children():
    found = set()
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                with open(f"/proc/{entry}/stat") as stat:
                    if int(stat.read().rsplit(")", 1)[1].split()[1]) == os.getpid():
                        found.add(int(entry))
            except OSError:
                pass
    return found

with build_engine("fleet:host,hash=sha3-256,bs=16384,workers=2") as engine:
    absent = engine_target(engine, bytes(32))
    assert not engine.search(b"\\x01" * 32, absent, 2).found
    assert engine.search(b"\\x01" * 32, absent, 4, time_budget=0.3).timed_out
    assert all(d.rows_hashed for d in engine.scheduler.devices)
    assert children() == set(), children()
assert children() == set(), children()
print("ok")
"""


_IDLE_SCRIPT = """
import time
from repro.engines import build_engine, engine_target

with build_engine("pool:sha1,workers=2,bs=2048") as engine:
    assert not engine.search(b"\\x01" * 32, engine_target(engine, bytes(32)), 2).found
    assert all(d.rows_hashed for d in engine.scheduler.devices)
    time.sleep(0.2)  # the last request's bookkeeping
    cpu, wall = time.process_time(), time.perf_counter()
    time.sleep(1.0)
    print((time.process_time() - cpu) / (time.perf_counter() - wall))
"""


def _spawn(script):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    return subprocess.Popen(
        [sys.executable, "-c", script], env=env, text=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )


class TestWorkerLoss:
    def test_close_twice_is_safe_and_leaves_no_child(self):
        """One device thread per host token, whatever its cores (the
        pool's helpers are C threads, shared by every engine)."""
        before = _device_threads()
        engine = build_engine("parallel:sha1,workers=2,bs=2048")
        assert not engine.search(
            BASE_SEED, engine_target(engine, RNG.bytes(32)), 2
        ).found
        (device,) = engine.scheduler.devices
        assert device.rows_hashed and device.workers == _cores(2)
        assert len(_device_threads() - before) == 1
        engine.close()
        engine.close()
        # Joined, not abandoned.
        assert _device_threads() <= before

    def test_dropped_engine_is_finalized_without_a_zombie(self):
        before = _device_threads()
        engine = build_engine("pool:sha1,workers=2,bs=2048")
        assert not engine.search(
            BASE_SEED, engine_target(engine, RNG.bytes(32)), 2
        ).found
        assert _device_threads() - before
        del engine
        gc.collect()
        assert _device_threads() <= before

    def test_idle_engine_and_workers_burn_no_cpu(self):
        """Device loops block on the dispatcher's condition when no
        request is active, and the kernel pool's helpers sleep a few
        milliseconds after their last job: the idle reading (<= 0.03
        CPU-s per wall-second) holds."""
        child = _spawn(_IDLE_SCRIPT)
        out, err = child.communicate(timeout=120)
        assert child.returncode == 0, err
        assert float(out) <= 0.03, out

    def test_an_idle_fleet_leaves_its_device_thread_asleep(self):
        """The monitor's idle heartbeats (every 0.2 s at the default
        0.02 s) probe the device and change nothing, so they do not wake
        its thread: at most one pull pass in 2 s with no request."""
        with FleetSearchEngine("host", hash_name="sha1") as engine:
            scheduler = engine.scheduler
            assert not engine.search(
                BASE_SEED, engine_target(engine, RNG.bytes(32)), 1
            ).found
            time.sleep(0.1)  # the device thread's first, empty pass
            passes = []
            real = scheduler._assemble_locked

            def counted(*arguments):
                passes.append(arguments)
                return real(*arguments)

            scheduler._assemble_locked = counted
            probes = scheduler.devices[0].probes
            time.sleep(2.0)
            assert scheduler.devices[0].probes > probes  # the heartbeat ran
            assert len(passes) <= 1

    def test_served_path_leaves_no_segment_and_forks_no_tracker(self):
        """An exhaustive d = 2 search and a budgeted d = 4 search on a
        two-core host: nothing is left in /dev/shm, and the engine forks
        no child process from build to close."""
        def segments():
            return sorted(n for n in os.listdir("/dev/shm") if n.startswith("psm_"))

        before = segments()
        child = _spawn(_SHM_SCRIPT)
        out, err = child.communicate(timeout=120)
        assert child.returncode == 0, err
        assert out.split() == ["ok"]
        assert segments() == before


# -- the device-loss storm: a device killed at 25%, revived at 75% ------


class TestDeviceLossStorm:
    def test_storm_passes_all_hard_invariants(self, device_loss_storm):
        storm = device_loss_storm(seed=0, requests=8)
        assert storm["lost"] == 0
        assert storm["false_authentications"] == 0
        # Byte-equal to batch:, and nothing shed: one device stays
        # healthy throughout.
        assert storm["mismatches"] == 0
        assert storm["statuses"] == ["found"] * 8
        assert storm["counters"]["redispatched_chunks"] > 0
        assert storm["counters"]["quarantines"] >= 1
        assert storm["victim_reinstated"]

    def test_storm_requires_a_survivor(self, device_loss_storm):
        """Kill the only device: what the dark fleet cannot serve is shed
        with the typed reason once the grace window passes, never lost
        and never falsely served."""
        storm = device_loss_storm(devices=("host",), no_device_grace=0.2)
        assert storm["lost"] == storm["false_authentications"] == 0
        assert set(storm["statuses"]) == {"found", "shed"}
        assert storm["shed_reasons"] == {
            Refusal.NO_HEALTHY_DEVICES.reason: storm["statuses"].count("shed")
        }
        assert storm["victim_reinstated"]
