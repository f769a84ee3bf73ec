"""Fault-tolerant multi-device dispatch (repro.fleet).

Five layers of coverage: the replay machinery that re-dispatch rides on
(cursor push-back, order preservation); one device's health lifecycle
(kill, quarantine, probation, reinstatement); the dispatcher's
protocol-level invariants (byte equivalence with the single-device
engine, re-dispatch after a mid-search kill, grace shedding when the
whole fleet is dark, hedged stragglers); the scan threads behind the
devices (the same bytes on any number of them, nothing left behind);
and the device-loss chaos storm that exercises all of it at once.
"""

import gc
import os
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from repro._bitutils import SEED_BITS, flip_bits, seed_to_words
from repro.devices.flaky import DeviceFailure, FlakyDeviceModel
from repro.engines import build_engine, engine_target
from repro.fleet import (
    DEVICE_WEIGHTS,
    FleetDevice,
    FleetSearchEngine,
)
from repro.fleet.storm import run_device_loss_storm
from repro.combinatorics.ranking import unrank_lexicographic_exact
from repro.hashes.registry import get_hash
from repro.reliability.breaker import CircuitBreaker
from repro.runtime.executor import BatchSearchExecutor
from repro.runtime.partition import partition_ranks
from repro.fleet.batcher import (
    SPLIT_MIN_ROWS,
    BatchSlice,
    ContinuousBatcher,
    UnitCursor,
    WorkerSet,
)
from repro.fleet.units import decompose_search
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
        """A cursor positioned past the single-rank distance-0 probe."""
        cursor = UnitCursor(decompose_search(1, chunk_ranks=2048), 2048)
        assert cursor.take(64) == (0, 0, 1)
        return cursor

    def test_pushed_back_slice_is_served_first_and_byte_identical(self):
        cursor = self._cursor()
        taken = cursor.take(64)
        assert taken == (1, 0, 64)
        cursor.push_back(*taken)
        assert cursor.take(64) == taken

    def test_reverse_push_back_restores_original_order(self):
        """The dispatcher pushes a failed batch's slices back in reverse."""
        cursor = self._cursor()
        first = cursor.take(32)
        second = cursor.take(32)
        for ranks in reversed([first, second]):
            cursor.push_back(*ranks)
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

    def test_pending_chunks_counts_replay(self):
        cursor = self._cursor()
        before = cursor.pending_chunks
        ranks = cursor.take(16)
        cursor.push_back(*ranks)
        cursor.push_back(*ranks)
        # The partially-served unit still counts once; each pushed-back
        # slice adds one replay chunk in front of it.
        assert cursor.pending_chunks == before + 2
        assert not cursor.exhausted


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

    def test_slow_token_throttles_but_never_fails(self):
        model = FlakyDeviceModel.from_token("slow-host", seed=2)
        assert model.injector.episodes == ()
        assert model.health_probe()
        assert all(model.injector.next() == "slow" for _ in range(10))

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
            assert devices[0].weight == DEVICE_WEIGHTS["gpu"]
            assert devices[1].weight == DEVICE_WEIGHTS["apu"]
        finally:
            engine.close()

    def test_unknown_device_token_rejected_at_build(self):
        with pytest.raises(ValueError):
            build_engine("fleet:warp-drive,host")


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

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            self._device(weight=0.0)


# -- dispatcher invariants ----------------------------------------------


@pytest.fixture
def engine():
    engine = FleetSearchEngine(
        "host", "host", hash_name="sha1", batch_size=4096, chunk_ranks=8192
    )
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
        client_seed = _planted(1, np.random.default_rng(3))
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
        victim = ticket.device.name
        time.sleep(0.05)  # let the device take some batches first
        engine.scheduler.kill_device(victim)
        result = ticket.result(timeout=120)
        # The exhaustive search still covered every candidate: a clean
        # not-found, not a lie manufactured by the dead device.
        assert result.found is False
        assert result.timed_out is False
        snapshot = engine.scheduler.snapshot()
        assert snapshot["redispatched_chunks"] > 0
        assert snapshot["quarantines"] >= 1

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


class TestHedging:
    def test_idle_device_hedges_a_straggler_batch(self):
        """A throttled device's old batch gets duplicated onto the idle one."""
        engine = FleetSearchEngine(
            "host",
            "slow-host",
            hash_name="sha1",
            batch_size=4096,
            chunk_ranks=8192,
            slow_factor=30.0,
            hedge_factor=1.0,
            hedge_min_seconds=0.02,
        )
        try:
            filler_target = engine_target(engine, RNG.bytes(32))
            straggler_target = engine_target(engine, RNG.bytes(32))
            # Placement is least-loaded: the filler takes host-0, which
            # forces the straggler onto the throttled device. The filler
            # finishes quickly, idling host-0 next to a straggling batch.
            filler = engine.submit(
                BASE_SEED, filler_target, 2, client_id="filler"
            )
            straggler = engine.submit(
                BASE_SEED,
                straggler_target,
                3,
                time_budget=20.0,
                client_id="straggler",
            )
            assert straggler.device.name == "slow-host-1"
            assert filler.result(timeout=60).found is False
            result = straggler.result(timeout=120)
            assert result.found is False
            snapshot = engine.scheduler.snapshot()
        finally:
            engine.close(drain=False)
        assert snapshot["hedges_launched"] >= 1
        # Every race has exactly one winner and one loser: a winning
        # hedge also cancels its primary, so each counter is bounded by
        # the launches but their sum is not.
        assert snapshot["hedge_wins"] <= snapshot["hedges_launched"]
        assert snapshot["hedges_cancelled"] <= snapshot["hedges_launched"]


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
    def test_dying_dispatcher_thread_sheds_instead_of_hanging(self, spec):
        def exploding_kernel(slices):
            raise RuntimeError("kernel blew up")  # not a DeviceFailure

        engine = build_engine(spec)
        for device in engine.scheduler.devices:
            device.batcher.run = exploding_kernel
        absent = engine_target(engine, RNG.bytes(32))
        ticket = engine.submit(BASE_SEED, absent, 1, client_id="orphan")
        with pytest.raises(RequestShed) as excinfo:
            ticket.result(timeout=3)
        assert excinfo.value.refusal is Refusal.SHUTDOWN
        with pytest.raises(ServerClosed):
            engine.submit(BASE_SEED, absent, 1)
        engine.close()  # returns: no thread is left to wait for
        assert engine.scheduler.snapshot()["queue_depth"] == 0

    def test_describe_round_trips_the_spec(self):
        engine = FleetSearchEngine(
            "host", "host", hash_name="sha1", batch_size=4096
        )
        try:
            assert engine.describe().startswith("fleet:host,host")
            rebuilt = build_engine(engine.describe())
            try:
                assert rebuilt.batch_size == engine.batch_size
                assert len(rebuilt.scheduler.devices) == 2
            finally:
                rebuilt.close()
        finally:
            engine.close()

    def test_default_fleet_is_two_hosts(self):
        engine = FleetSearchEngine(hash_name="sha1")
        try:
            assert [d.name for d in engine.scheduler.devices] == [
                "host-0",
                "host-1",
            ]
        finally:
            engine.close()


# -- the scan threads behind the devices --------------------------------

#: Odd and not a multiple of 3, and so is what it leaves of shell 2
#: (13 batches, then 1 999 rows): no cut lands on a round number.
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


def _scan_threads():
    """The live threads of every worker set in this process."""
    return {t for t in threading.enumerate() if t.name.startswith("rbc-scan")}


class TestWorkerEquivalence:
    """Same found / seed / distance / seeds_hashed / shells on 1, 2 or 3
    scan threads (3 oversubscribes this host on purpose) as in one."""

    @pytest.mark.parametrize("hash_name", ["sha1", "sha3-256"])
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_same_bytes_wherever_the_seed_lies(self, hash_name, workers):
        assert RAGGED_BATCH >= SPLIT_MIN_ROWS and SHELL_2 % RAGGED_BATCH % 6 in (1, 5)
        cut = partition_ranks(RAGGED_BATCH, max(workers, 2))
        last_batch = SHELL_2 - SHELL_2 % RAGGED_BATCH
        ragged_cut = partition_ranks(SHELL_2 - last_batch, max(workers, 2))
        ranks = {
            "first row of a batch": 3 * RAGGED_BATCH,
            "last row of worker 0's piece": 3 * RAGGED_BATCH + cut[0][1] - 1,
            "first row of worker 1's piece": 3 * RAGGED_BATCH + cut[1][0],
            "last row of a batch": 4 * RAGGED_BATCH - 1,
            "ragged final batch, a cut": last_batch + ragged_cut[1][0],
            "ragged final batch, last row": SHELL_2 - 1,
        }
        reference = build_engine(f"batch:{hash_name},bs={RAGGED_BATCH},cache=yes")
        spec = f"pool:{hash_name},workers={workers},bs={RAGGED_BATCH}"
        with build_engine(spec) as engine:
            targets = {
                where: engine_target(
                    engine,
                    flip_bits(
                        BASE_SEED, unrank_lexicographic_exact(SEED_BITS, 2, rank)
                    ),
                )
                for where, rank in ranks.items()
            }
            targets["absent"] = engine_target(engine, RNG.bytes(32))
            for where, target in targets.items():
                result = engine.search(BASE_SEED, target, 2)
                expected = reference.search(BASE_SEED, target, 2)
                assert result.found is (where != "absent"), where
                assert _fingerprint(result) == _fingerprint(expected), where
            assert (engine.worker_set.batches > 0) is (workers > 1)

    def test_two_matches_in_one_fused_batch(self):
        """Two requests' slices in one batch, cut mid-slice: each settles
        on its own seed."""
        algo = get_hash("sha1")
        workers = WorkerSet(algo, True, 2)
        try:
            rng = np.random.default_rng(5)
            bases = [rng.bytes(32) for _ in range(2)]
            # 1 000 + 2 000 ranks cut at 1 500: worker 0 ends 500 ranks into
            # the second slice, whose match is worker 1's first row.
            slices, wanted = [], []
            for key, base, lo, hi, rank in (
                ("a", bases[0], 0, 1000, 999),
                ("b", bases[1], 1000, 3000, 1500),
            ):
                seed = flip_bits(base, unrank_lexicographic_exact(SEED_BITS, 2, rank))
                wanted.append(seed)
                slices.append(
                    BatchSlice(
                        key, 2, lo, hi, seed_to_words(base),
                        algo.digest_to_words(algo.hash_seed(seed)),
                    )
                )
            outcomes = ContinuousBatcher(algo, True, workers).run(slices)
            assert [o.key for o in outcomes] == ["a", "b"]
            assert [o.seed for o in outcomes] == wanted
            assert [o.rows for o in outcomes] == [1000, 2000]
            assert workers.batches == 1
        finally:
            workers.close()

    def test_concurrent_scans_each_count_and_answer(self):
        """Two devices' threads scanning through one set of more threads
        than cores, switching as often as the interpreter allows: every
        scan finds its own row and is counted once."""
        algo = get_hash("sha1")
        workers = WorkerSet(algo, True, 3)
        base = seed_to_words(BASE_SEED)
        rows = (0, 511, 512, 1023, 2047)
        targets = [
            algo.digest_to_words(algo.hash_seed(flip_bits(
                BASE_SEED, unrank_lexicographic_exact(SEED_BITS, 2, rank)
            )))
            for rank in rows
        ]
        answers, scans = [], 100

        def scan():
            for i in range(scans):
                job = (2, 0, 2048, base, targets[i % len(rows)])
                answers.append((workers.scan([job]), [rows[i % len(rows)]]))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            callers = [threading.Thread(target=scan) for _ in range(2)]
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=60)
            assert not any(caller.is_alive() for caller in callers)
        finally:
            sys.setswitchinterval(interval)
            workers.close()
        assert len(answers) == 2 * scans
        assert all(found == wanted for found, wanted in answers)
        assert workers.batches == 2 * scans

    @pytest.mark.parametrize("options", [f"bs={SPLIT_MIN_ROWS // 2}"])
    def test_narrow_or_unshared_batches_never_touch_a_pipe(self, options):
        reference = build_engine("batch:sha1,bs=512")
        client_seed = _planted(2, np.random.default_rng(17))
        with build_engine(f"pool:sha1,workers=2,{options}") as engine:
            for seed in (client_seed, RNG.bytes(32)):
                target = engine_target(engine, seed)
                result = engine.search(BASE_SEED, target, 2)
                expected = reference.search(BASE_SEED, target, 2)
                assert (result.found, result.seed, result.distance) == (
                    expected.found, expected.seed, expected.distance,
                )
            assert result.seeds_hashed == expected.seeds_hashed
            assert engine.workers == 2
            assert engine.worker_set.batches == 0


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
    assert engine.search(b"\\x01" * 32, absent, 3, time_budget=0.3).timed_out
    assert engine.worker_set.batches > 0
    assert children() == set(), children()
assert children() == set(), children()
print("ok")
"""


_IDLE_SCRIPT = """
import time
from repro.engines import build_engine, engine_target

with build_engine("pool:sha1,workers=2,bs=2048") as engine:
    assert not engine.search(b"\\x01" * 32, engine_target(engine, bytes(32)), 2).found
    assert engine.worker_set.batches > 0
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
        before = _scan_threads()
        engine = build_engine("parallel:sha1,workers=2,bs=2048")
        assert not engine.search(
            BASE_SEED, engine_target(engine, RNG.bytes(32)), 2
        ).found
        assert engine.worker_set.batches > 0
        assert _scan_threads() - before
        engine.close()
        engine.close()
        # Joined, not abandoned.
        assert _scan_threads() <= before

    def test_dropped_engine_is_finalized_without_a_zombie(self):
        before = _scan_threads()
        engine = build_engine("pool:sha1,workers=2,bs=2048")
        assert not engine.search(
            BASE_SEED, engine_target(engine, RNG.bytes(32)), 2
        ).found
        assert _scan_threads() - before
        del engine
        gc.collect()
        assert _scan_threads() <= before

    def test_idle_engine_and_workers_burn_no_cpu(self):
        """Scan threads block on the pool's queue; the dispatcher's idle
        reading (<= 0.03 CPU-s per wall-second) holds with them in the
        process."""
        child = _spawn(_IDLE_SCRIPT)
        out, err = child.communicate(timeout=120)
        assert child.returncode == 0, err
        assert float(out) <= 0.03, out

    def test_served_path_leaves_no_segment_and_forks_no_tracker(self):
        """An exhaustive d = 2 search and a budgeted d = 3 search on two
        threads: nothing is left in /dev/shm, and the engine forks no
        child process from build to close."""
        def segments():
            return sorted(n for n in os.listdir("/dev/shm") if n.startswith("psm_"))

        before = segments()
        child = _spawn(_SHM_SCRIPT)
        out, err = child.communicate(timeout=120)
        assert child.returncode == 0, err
        assert out.split() == ["ok"]
        assert segments() == before


# -- the chaos storm (satellite: device killed at 25%, revived at 75%) --


class TestDeviceLossStorm:
    def test_storm_passes_all_hard_invariants(self):
        report = run_device_loss_storm(seed=0, requests=8)
        assert not report.failures, report.render()
        assert report.lost_requests == 0
        assert report.false_authentications == 0
        assert report.byte_mismatches == 0
        assert report.redispatched_chunks > 0
        assert report.quarantines >= 1
        assert report.victim_reinstated
        # Shed rate bounded: the storm's fleet keeps one healthy device
        # throughout, so nothing should be shed at all.
        assert report.shed == 0
        assert report.resolved == report.requests

    def test_storm_requires_a_survivor(self):
        with pytest.raises(ValueError):
            run_device_loss_storm(devices=("host",))
