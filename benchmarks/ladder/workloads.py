"""The four workloads: their seeded inputs, their loops, their checks.

Names are fixed; later issues refer to them.
"""

from __future__ import annotations

import itertools
import math
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from repro._bitutils import flip_bits
from repro.combinatorics.ranking import unrank_lexicographic_exact
from repro.deploy.trace import DEPTH_ALPHA
from repro.engines import build_engine
from repro.hashes.registry import get_hash
from repro.runtime.maskplan import global_plan_cache

import rig
from rig import Client, Op, Server
from tracer import Tracer

__all__ = [
    "WORKLOADS",
    "Window",
    "Measurement",
    "run",
    "open_loop_schedule",
    "slot_rotation",
    "search_plan",
]

#: ``BENCHMARK.json`` records why each exists; README.md says it at length.
WORKLOADS = ("auth_shallow", "auth_mixed_open", "enroll_auth_durable", "search_d3")

#: auth_mixed_open: ~45 % of closed-loop capacity on the sizing host; 6/s
#: sits on the knee and its p90 does not repeat.
OPEN_LOOP_RATE = 4.0
OPEN_LOOP_IN_FLIGHT = 2
#: An authentication later than this from its due time misses the limit.
LATENCY_LIMIT_S = 0.5

SEARCH_ENGINE = f"fleet:host,hash=sha3-256,bs={rig.TOPOLOGY.batch_size}"
SEARCH_DISTANCE = 3
#: Every search plants its seed within 2 % of this rank of shell 3, inside
#: its first quarter: shells 0-2 and then 1/32 of shell 3, 131 k hashes,
#: a third of a second. Equal work, so that searches can be compared with
#: one another and the quiet ones told from the held-up ones; short, so
#: that some of a window's ~70 fall wholly inside a quiet spell. The rate
#: does not depend on the rank (measured 3.5-4.2e5 /s from 1/64 to 1/4).
SEARCH_RANK = math.comb(256, SEARCH_DISTANCE) // 32
SEARCH_RANK_JITTER = 0.02
#: Searches planned per seed; a window walks them over and over.
SEARCH_PLAN = 16
#: The set-up search touches every mask-plan chunk a planted rank can.
SEARCH_COLD_RANK = int(SEARCH_RANK * (1 + SEARCH_RANK_JITTER)) + 1
#: No search comes near it; a search that does has failed.
SEARCH_TIME_BUDGET = 60.0

#: Set-ups per untraced run; ``setup_s`` is their quiet-most reading.
SETUP_REPEATS = 3
#: The traced window's share of ``--seconds`` (10 s of 25 s).
TRACED_WINDOW_SHARE = 0.4


@dataclass
class Window:
    """What a workload's loop hands back: the operations of one window."""

    ops: list[Op]
    #: The operations whose latency the metrics describe: ``ops`` itself
    #: (authentications, timed from their due time in the open loop;
    #: searches), or one derived Op per enrollment and the authentication
    #: that follows it.
    primary: list[Op]
    seconds: float
    #: What the seed turned into (for the determinism self-test).
    inputs: dict
    generator_late_s: list[float] = field(default_factory=list)

    @property
    def latencies(self) -> list[float]:
        return [op.latency_s for op in self.primary]


@dataclass
class Measurement:
    """Everything one run produced, before it is boiled into metrics."""

    window: Window
    #: Latency limit for ``client.within_limit_share``, seconds.
    limit_s: float
    #: What ``window.latencies`` time, for the report.
    primary: str
    #: CPU seconds the serving process spent across the window.
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    setup_runs: list[float] = field(default_factory=list)
    #: Server counter deltas across the window (MetricsSnapshot).
    counters: dict[str, float] = field(default_factory=dict)
    #: Named pass/fail checks beyond the per-op ones.
    checks: dict[str, bool] = field(default_factory=dict)
    noisy_slots: int = 0
    ready_s: float = 0.0
    drain_s: float = 0.0

    @property
    def ops(self) -> list[Op]:
        return self.window.ops

    @property
    def failed(self) -> int:
        return sum(not op.ok for op in self.ops)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and all(self.checks.values())


# -- seeded inputs ---------------------------------------------------------


def slot_rotation(seed: int, slots: list[int]) -> list[int]:
    """The order a closed loop walks the clean slots in, over and over."""
    rng = np.random.default_rng((seed, 0x5107))
    return [int(s) for s in rng.permutation(slots)]


def open_loop_schedule(
    seed: int, slots: list[int], seconds: float, rate: float = OPEN_LOOP_RATE
) -> list[tuple[float, int, int]]:
    """(due offset, slot, depth) per request of ``auth_mixed_open``.

    Arrivals are a Poisson process conditioned on its count: ``rate *
    seconds`` uniform instants, sorted. Depths follow ``deploy.trace``'s
    law ``P(d) ~ (d+1)^-1.4`` in exact proportion, in seeded order, and
    slots rotate, so two seeds differ in timing and order but not in the
    amount of work they ask for.
    """
    rng = np.random.default_rng((seed, 0x09E7))
    count = max(1, round(rate * seconds))
    offsets = np.sort(rng.random(count)) * seconds
    depths = np.arange(rig.TOPOLOGY.max_distance + 1)
    weights = (depths + 1.0) ** (-DEPTH_ALPHA)
    shares = weights / weights.sum() * count
    counts = np.floor(shares).astype(int)
    # Largest remainders take the requests flooring left over.
    for index in np.argsort(counts - shares)[: count - counts.sum()]:
        counts[index] += 1
    planted = rng.permutation(np.repeat(depths, counts))
    rotation = slot_rotation(seed, slots)
    return [
        (float(offsets[i]), rotation[i % len(rotation)], int(planted[i]))
        for i in range(count)
    ]


def search_plan(seed: int) -> tuple[bytes, list[int]]:
    """(base seed, planted ranks) for ``search_d3``."""
    rng = np.random.default_rng((seed, 0x5EA2))
    base = rng.bytes(32)
    jitter = rng.uniform(-SEARCH_RANK_JITTER, SEARCH_RANK_JITTER, SEARCH_PLAN)
    return base, [int(SEARCH_RANK * (1 + j)) for j in jitter]


def plant(base: bytes, rank: int) -> tuple[bytes, bytes]:
    """(seed at ``rank`` of shell 3 around ``base``, its digest)."""
    positions = unrank_lexicographic_exact(256, SEARCH_DISTANCE, rank)
    planted = flip_bits(base, positions)
    return planted, get_hash("sha3-256").scalar(planted)


# -- the TCP rig: set-up, window bookkeeping, tear-down -----------------------


class _Deployment:
    """Set-up and tear-down around a TCP workload's window."""

    def __init__(
        self,
        workload: str,
        seed: int,
        tracer: Tracer,
        depths: tuple[int, ...],
        setups: int,
    ):
        self.spec = (
            rig.DURABLE_TOPOLOGY
            if workload == "enroll_auth_durable"
            else rig.TOPOLOGY
        )
        self.seed, self.tracer, self.depths = seed, tracer, depths
        self.setups = setups
        self.setup_runs: list[float] = []
        self.checks: dict[str, bool] = {}
        self.server: Server | None = None
        self.client: Client | None = None
        self.slots: list[int] = []
        self.noisy = 0
        self.ready_s = self.drain_s = 0.0
        #: Request ids below this belong to set-up.
        self.next_request = 0

    def __enter__(self) -> "_Deployment":
        try:
            self._set_up()
        except BaseException:
            if self.server is not None:
                self.server.stop()
            raise
        return self

    def _set_up(self) -> None:
        predicted, noisy = rig.clean_slots()
        self.noisy = len(noisy)
        if len(predicted) < rig.MIN_CLEAN_SLOTS:
            raise rig.RigError(f"fleet {rig.FLEET_SEED} has clean slots {predicted}")
        # Set-up, as a device sees it: spawn until the first correct reply.
        # Done several times, because one spawn is a noisy sample.
        for repeat in range(self.setups):
            if self.server is not None:
                self._stop()
            started = time.perf_counter()
            self.server = Server(self.spec)
            self.ready_s = self.server.start()
            self.client = Client(self.server.address, self.seed, Tracer(False))
            first = self.client.authenticate(predicted[0], 0, request=repeat)
            self.setup_runs.append(time.perf_counter() - started)
            if not first.ok:
                raise rig.RigError(f"first authentication failed: {first.detail}")
        self.slots = rig.confirm_slots(
            self.server, self.client, predicted, self.depths, self.setups
        )
        self.noisy += len(predicted) - len(self.slots)
        self.next_request = self.setups + len(predicted) * len(self.depths)
        self.client.tracer = self.tracer

    def _stop(self) -> None:
        assert self.server is not None
        self.drain_s, drained = self.server.stop()
        self.checks["server_drained_clean"] = (
            self.checks.get("server_drained_clean", True) and drained
        )

    def __exit__(self, *_exc) -> None:
        self._stop()

    def measure(self, loop, primary: str = "auth") -> Measurement:
        """Run ``loop(client, slots, first_request)`` between two scrapes."""
        server, client = self.server, self.client
        assert server is not None and client is not None
        before = server.scrape()
        cpu_before = server.cpu_seconds()
        window = loop(client, self.slots, self.next_request)
        cpu_s = server.cpu_seconds() - cpu_before
        after = server.scrape()
        self.checks["no_false_authentications"] = after.false_authentications == 0
        counters = {
            key: after.counters[key] - before.counters.get(key, 0.0)
            for key in after.counters
        }
        # A peak is not a delta.
        counters["queue_depth_peak"] = after.counters.get("queue_depth_peak", 0.0)
        return Measurement(
            window=window,
            limit_s=LATENCY_LIMIT_S,
            primary=primary,
            cpu_s=cpu_s,
            peak_rss_mb=server.peak_rss_mb(),
            setup_runs=self.setup_runs,
            counters=counters,
        )


# -- the loops ----------------------------------------------------------------


def _auth_shallow(seed: int, seconds: float):
    def loop(client: Client, slots: list[int], first_request: int) -> Window:
        rotation = slot_rotation(seed, slots)
        ops: list[Op] = []
        started = time.perf_counter()
        for request, slot in enumerate(itertools.cycle(rotation), first_request):
            if time.perf_counter() - started >= seconds:
                break
            ops.append(client.authenticate(slot, 0, request))
        elapsed = time.perf_counter() - started
        return Window(ops, ops, elapsed, {"slots": rotation})

    return loop


def _enroll_auth_durable(seed: int, seconds: float):
    def loop(client: Client, slots: list[int], first_request: int) -> Window:
        rotation = slot_rotation(seed, slots)
        versions = {slot: client.enrolled_version(slot) for slot in rotation}
        ops: list[Op] = []
        request = first_request
        started = time.perf_counter()
        for slot in itertools.cycle(rotation):
            if time.perf_counter() - started >= seconds:
                break
            op, versions[slot] = client.enroll(slot, request, versions[slot])
            ops.append(op)
            ops.append(client.authenticate(slot, 0, request + 1))
            request += 2
        elapsed = time.perf_counter() - started
        # What an enrolling device waits for: the durable acknowledgement
        # and then its first authentication against the new image.
        pairs = [
            Op("enroll+auth", a.request, a.latency_s + b.latency_s, a.ok and b.ok)
            for a, b in zip(ops[::2], ops[1::2])
        ]
        return Window(ops, pairs, elapsed, {"slots": rotation})

    return loop


def _auth_mixed_open(seed: int, seconds: float, rate: float = OPEN_LOOP_RATE):
    def loop(client: Client, slots: list[int], first_request: int) -> Window:
        schedule = open_loop_schedule(seed, slots, seconds, rate)
        devices = [client.device(slot, depth) for _due, slot, depth in schedule]
        # One physical device cannot run two authentications at once (the
        # server refuses a duplicate in-flight client id as busy).
        slot_locks = {slot: threading.Lock() for slot in slots}
        late: list[float] = []

        def fire(index: int, due: float) -> Op:
            _offset, slot, depth = schedule[index]
            with slot_locks[slot]:
                return client.authenticate(
                    slot, depth, first_request + index, devices[index], due
                )

        with ThreadPoolExecutor(max_workers=OPEN_LOOP_IN_FLIGHT) as pool:
            started = time.perf_counter()
            futures = []
            for index, (offset, _slot, _depth) in enumerate(schedule):
                due = started + offset
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                late.append(time.perf_counter() - due)
                futures.append(pool.submit(fire, index, due))
            ops = [future.result() for future in futures]
        elapsed = time.perf_counter() - started
        return Window(ops, ops, elapsed, {"schedule": schedule}, late)

    return loop


#: loop maker, depths its slots must be clean at, what its latencies time
_TCP_LOOPS = {
    "auth_shallow": (_auth_shallow, (0,), "auth"),
    "auth_mixed_open": (
        _auth_mixed_open,
        tuple(range(rig.TOPOLOGY.max_distance + 1)),
        "auth",
    ),
    "enroll_auth_durable": (_enroll_auth_durable, (0,), "enroll+auth"),
}


def _search_d3(seed: int, seconds: float, tracer: Tracer, setups: int) -> Measurement:
    rig.reset_own_peak_rss()
    base, ranks = search_plan(seed)
    targets = [plant(base, rank) for rank in ranks]
    cold_seed, cold_digest = plant(base, SEARCH_COLD_RANK)
    setup_runs = []
    engine = None
    for _repeat in range(setups):
        if engine is not None:
            engine.close()
        global_plan_cache().clear()
        started = time.perf_counter()
        engine = build_engine(SEARCH_ENGINE)
        cold = engine.search(
            base, cold_digest, SEARCH_DISTANCE, time_budget=SEARCH_TIME_BUDGET
        )
        setup_runs.append(time.perf_counter() - started)
        if not (cold.found and cold.seed == cold_seed):
            engine.close()
            raise rig.RigError("the cold search did not find its planted seed")
    assert engine is not None
    ops: list[Op] = []
    try:
        cpu_before = time.process_time()
        started = time.perf_counter()
        for request, (planted, digest) in enumerate(itertools.cycle(targets)):
            if time.perf_counter() - started >= seconds:
                break
            begun = time.perf_counter()
            with tracer.span("search", request):
                result = engine.search(
                    base, digest, SEARCH_DISTANCE, time_budget=SEARCH_TIME_BUDGET
                )
            took = time.perf_counter() - begun
            op = Op("search", request, took, False, depth=SEARCH_DISTANCE,
                    seeds=result.seeds_hashed, search_s=took)
            if not result.found:
                op.detail = "not found"
            elif result.seed != planted:
                op.detail = "wrong seed"
            elif result.distance != rig.expected_distance(SEARCH_DISTANCE):
                op.detail = f"distance {result.distance}"
            else:
                op.ok = True
            ops.append(op)
        elapsed = time.perf_counter() - started
        cpu_s = time.process_time() - cpu_before
    finally:
        engine.close()
    return Measurement(
        window=Window(ops, ops, elapsed, {"base": base.hex(), "ranks": ranks}),
        limit_s=rig.TOPOLOGY.time_budget,
        primary="search",
        cpu_s=cpu_s,
        peak_rss_mb=rig.own_peak_rss_mb(),
        setup_runs=setup_runs,
    )


#: Depths the traced run's ladder sends, whatever the workload plants.
LADDER_DEPTHS = (0, 2)
#: Ladder request ids start here, clear of any window's.
LADDER_FIRST_REQUEST = 1_000_000


def run(
    workload: str,
    seed: int,
    seconds: float,
    tracer: Tracer,
    setups: int = SETUP_REPEATS,
    ladder=None,
) -> Measurement:
    """Set up, run one window of ``workload``, tear down.

    ``ladder(client, slots, first_request)``, given by the traced run, is
    called against the live server once the window is over.
    """
    make_loop, depths, primary = _TCP_LOOPS.get(workload, (None, (), ""))
    if ladder is not None:
        depths = tuple(sorted({*depths, *LADDER_DEPTHS}))
    if make_loop is None:
        measurement = _search_d3(seed, seconds, tracer, setups)
        if ladder is None:
            return measurement
    with _Deployment(workload, seed, tracer, depths, setups) as deployment:
        if make_loop is not None:
            measurement = deployment.measure(make_loop(seed, seconds), primary)
        if ladder is not None:
            ladder(deployment.client, deployment.slots, LADDER_FIRST_REQUEST)
    # search_d3 has no server of its own; its traced run borrows one.
    measurement.checks.update(deployment.checks)
    measurement.noisy_slots = deployment.noisy
    measurement.ready_s = deployment.ready_s
    measurement.drain_s = deployment.drain_s
    return measurement


def sweep(seed: int, seconds: float, rates: tuple[float, ...]) -> dict[float, Measurement]:
    """``auth_mixed_open`` at each of a few rates against one server."""
    results = {}
    depths = _TCP_LOOPS["auth_mixed_open"][1]
    with _Deployment("auth_mixed_open", seed, Tracer(False), depths, 1) as deployment:
        for rate in rates:
            results[rate] = deployment.measure(_auth_mixed_open(seed, seconds, rate))
    return results
