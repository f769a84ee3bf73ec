"""Per-layer probes of the traced run.

Two kinds. The *ladder* sends a fixed set of requests to the live server
with client-side spans around each leg (connect, handshake, respond,
digest) plus a no-work round trip as the transport floor. The
*in-process probes* time calls into each layer's public functions on the
stack ``build_serving_stack`` returns for the benchmark's topology. Each
probe repeats its call and reports the quiet-host reading (``rig.quiet``),
as the end-to-end timings do, so that stages timed at different moments
add up. Layers are the modules under ``src/repro``.
"""

from __future__ import annotations

import hashlib
import math
import shutil
import time

import numpy as np

from repro._bitutils import words_to_seeds
from repro.deploy.enrollment import build_fleet_record, build_serving_stack
from repro.durability.store import DurableImageStore
from repro.engines import build_engine
from repro.hashes.registry import get_hash
from repro.keygen.aes import AES128
from repro.net.concurrent import ConcurrentCAServer
from repro.net.messages import DigestSubmission, FrameDecoder, encode_frame
from repro.runtime.maskplan import MaskPlanCache

import rig
import workloads
from rig import Client, quiet
from tracer import Tracer

__all__ = ["ladder", "in_process", "budget_lines"]

_BATCH = rig.TOPOLOGY.batch_size
_MASTER_KEY = b"deploy-master-k!"


def _quiet_seconds(call, budget_s: float) -> float:
    """Quiet wall time of ``call()``: until 30 calls or ``budget_s``, min 3."""
    samples: list[float] = []
    spent = 0.0
    while len(samples) < 3 or (len(samples) < 30 and spent < budget_s):
        started = time.perf_counter()
        call()
        samples.append(time.perf_counter() - started)
        spent += samples[-1]
    return quiet(samples)


# -- the ladder: client-side spans against the live server -------------------


class _ServingStack:
    """The benchmark's serving stack in this process, one call at a time.

    The ladder takes one sample of each stage right after each traced
    request, while the server sits idle, so that a round trip and the
    stages it is split into see the same spells of the host.
    """

    def __init__(self, slot: int):
        self.verifying, engine = build_serving_stack(rig.TOPOLOGY, rig.FLEET_SEED)
        self.server = ConcurrentCAServer(self.verifying, scheduler=engine)
        self.client_id, _puf, self.mask = build_fleet_record(
            rig.FLEET_SEED, slot, rig.TOPOLOGY.num_cells
        )
        self.seed = self.verifying.enrolled_seed(self.client_id)
        challenge = self.verifying.issue_challenge(self.client_id)
        # A fresh device's first read is deterministic, so one digest per
        # (slot, depth) is what every such request submits.
        self.digests = {
            depth: Client.device(slot, depth)[1].respond(
                challenge, reference_mask=self.mask
            )
            for depth in workloads.LADDER_DEPTHS
        }
        self.samples: dict[str, list[float]] = {}

    def _time(self, key: str, call) -> None:
        started = time.perf_counter()
        call()
        self.samples.setdefault(key, []).append(
            (time.perf_counter() - started) * 1e3
        )

    def _submit(self, depth: int) -> None:
        reply = self.server.submit(self.client_id, self.digests[depth]).result(
            timeout=30.0
        )
        if not reply.authenticated or reply.distance != depth:
            raise rig.RigError(f"in-process depth-{depth} submit failed")

    def sample(self, depth: int) -> None:
        v, cid = self.verifying, self.client_id
        self._time(f"net.submit_d{depth}_ms", lambda: self._submit(depth))
        if depth == 0:
            self._time("puf.lookup_ms", lambda: v.image_db.lookup(cid))
            self._time("core.issue_challenge_ms", lambda: v.issue_challenge(cid))
            self._time(
                "keygen.issue_public_key_ms",
                lambda: v.issue_public_key(cid, self.seed),
            )

    def readings(self) -> dict[str, float]:
        return {key: quiet(v) for key, v in self.samples.items()}

    def close(self) -> None:
        self.server.close()


def ladder(
    client: Client, slots: list[int], first_request: int, smoke: bool
) -> dict[str, float]:
    """Fixed closed-loop requests with spans: the per-leg round trips,
    and beside each the same stages called in this process."""
    tracer = client.tracer
    plain = Client(client.address, client.seed, Tracer(False))
    noops, shallow_pairs, deep = (3, 3, 2) if smoke else (10, 32, 8)
    request = first_request
    build_ms: list[float] = []
    traced_ms: list[float] = []
    plain_ms: list[float] = []
    by_depth: dict[int, set[int]] = {depth: set() for depth in workloads.LADDER_DEPTHS}
    failures = 0

    def one(who: Client, slot: int, depth: int) -> float:
        nonlocal request, failures
        started = time.perf_counter()
        device = who.device(slot, depth)
        build_ms.append((time.perf_counter() - started) * 1e3)
        op = who.authenticate(slot, depth, request, device=device)
        if who is client:
            by_depth[depth].add(request)
        request += 1
        failures += not op.ok
        return op.latency_s * 1e3

    stack = _ServingStack(slots[0])
    try:
        for _ in range(noops):
            client.noop(request)
            request += 1
        # Traced and untraced depth-0 requests alternate, so drift hits both.
        for index in range(shallow_pairs):
            slot = slots[index % len(slots)]
            traced_ms.append(one(client, slot, 0))
            stack.sample(0)
            plain_ms.append(one(plain, slot, 0))
        for index in range(deep):
            one(client, slots[index % len(slots)], 2)
            stack.sample(2)
    finally:
        stack.close()
    if failures:
        raise rig.RigError(f"{failures} ladder requests failed")

    shallow, deepest = (by_depth[d] for d in workloads.LADDER_DEPTHS)

    def span_ms(name: str, requests: set[int] | None = None) -> float:
        return quiet(tracer.durations_ms(name, requests))

    return {
        **stack.readings(),
        "net.connect_ms": span_ms("connect"),
        "net.noop_rtt_ms": span_ms("noop"),
        "net.handshake_rtt_ms": span_ms("handshake", shallow),
        "net.digest_rtt_d0_ms": span_ms("digest", shallow),
        "net.digest_rtt_d2_ms": span_ms("digest", deepest),
        "client.respond_ms": span_ms("respond", shallow | deepest),
        "client.build_device_ms": quiet(build_ms),
        "bench.trace_overhead_share": quiet(traced_ms) / quiet(plain_ms) - 1.0,
    }


# -- in-process probes ---------------------------------------------------------


def _hash_probes(rng, budget_s: float) -> dict[str, float]:
    words = rng.integers(0, 2**63, size=(_BATCH, 4), dtype=np.uint64)
    out = {}
    for name, key in (("sha3-256", "sha3_256"), ("sha1", "sha1")):
        algo = get_hash(name)
        seconds = _quiet_seconds(lambda: algo.hash_seeds_batch(words), budget_s)
        out[f"hashes.{key}_batch_hps"] = _BATCH / seconds
    seeds = words_to_seeds(words)

    def hashlib_loop():
        for seed in seeds:
            hashlib.sha3_256(seed).digest()

    out["hashes.sha3_256_hashlib_loop_hps"] = _BATCH / _quiet_seconds(
        hashlib_loop, budget_s
    )
    return out


def _runtime_probes(budget_s: float) -> dict[str, float]:
    executor = build_engine(f"batch:sha3-256,bs={_BATCH}")
    rows = 2**20

    def drain():
        for _batch in executor.mask_batches(3, 0, rows):
            pass

    out = {"runtime.maskgen_masks_per_s": rows / _quiet_seconds(drain, budget_s)}
    shell2 = math.comb(256, 2)
    plan_bytes = 0

    def cold_plan():
        nonlocal plan_bytes
        cache = MaskPlanCache()
        plan, _hit = cache.get_or_build(2, 0, shell2, _BATCH)
        plan_bytes = plan.nbytes
        cache.clear()

    out["runtime.plan_build_s"] = _quiet_seconds(cold_plan, budget_s)
    out["runtime.plan_bytes"] = float(plan_bytes)
    return out


def _engine_probes(seed: int, smoke: bool) -> dict[str, float]:
    """The same planted seeds through each rung's engine, warm; each
    rung's reading is its fastest search, as ``hashes_per_s`` is."""
    base, ranks = workloads.search_plan(seed)
    targets = [workloads.plant(base, rank) for rank in ranks[: 2 if smoke else 4]]
    rungs = (
        ("runtime.search_hps", f"batch:sha3-256,bs={_BATCH},cache=yes"),
        ("runtime.pool_search_hps", f"pool:sha3-256,workers=1,bs={_BATCH}"),
        ("sched.search_hps", f"sched:sha3-256,bs={_BATCH}"),
        ("fleet.search_hps", workloads.SEARCH_ENGINE),
    )
    out = {}
    for key, spec in rungs:
        engine = build_engine(spec)
        try:
            for timed in (False, True):  # first pass fills the plan cache
                if timed and key.startswith("fleet."):
                    batches = engine.scheduler.snapshot()["batches"]
                rates = []
                for planted, digest in targets:
                    started = time.perf_counter()
                    result = engine.search(
                        base,
                        digest,
                        workloads.SEARCH_DISTANCE,
                        time_budget=workloads.SEARCH_TIME_BUDGET,
                    )
                    elapsed = time.perf_counter() - started
                    if result.seed != planted:
                        raise rig.RigError(f"{spec} missed its planted seed")
                    rates.append(result.seeds_hashed / elapsed)
            out[key] = max(rates)
            if key.startswith("fleet."):
                out["fleet.batches_per_search"] = (
                    engine.scheduler.snapshot()["batches"] - batches
                ) / len(targets)
        finally:
            close = getattr(engine, "close", None)
            if close is not None:
                close()
    return out


def _store_probes(slots: list[int], budget_s: float) -> dict[str, float]:
    """puf / keygen / net framing: the stages no round trip is split into."""
    verifying, engine = build_serving_stack(rig.TOPOLOGY, rig.FLEET_SEED)
    engine.close()
    client_id, _puf, mask = build_fleet_record(
        rig.FLEET_SEED, slots[0], rig.TOPOLOGY.num_cells
    )
    out = {
        "puf.enroll_ms": _quiet_seconds(
            lambda: verifying.enroll(client_id, mask), budget_s
        )
        * 1e3
    }
    image = bytes(23_000)
    cipher = AES128(_MASTER_KEY)
    out["keygen.aes_ctr_mb_per_s"] = (
        len(image)
        / 1e6
        / _quiet_seconds(lambda: cipher.ctr_transform(image, b"8bytes!!"), budget_s)
    )
    submission = DigestSubmission(client_id=client_id, digest=bytes(32))

    def frame_roundtrip():
        frame = encode_frame(submission.to_bytes())
        (body,) = FrameDecoder().feed(frame)
        DigestSubmission.from_bytes(body)

    out["net.frame_roundtrip_us"] = _quiet_seconds(frame_roundtrip, budget_s) * 1e6
    return out


def _durability_probes(slots: list[int], budget_s: float) -> dict[str, float]:
    client_id, _puf, mask = build_fleet_record(
        rig.FLEET_SEED, slots[0], rig.TOPOLOGY.num_cells
    )
    out = {}
    for policy in ("none", "always"):
        data_dir = rig.scratch_dir(f"probe-wal-{policy}-")
        try:
            store = DurableImageStore(data_dir, _MASTER_KEY, fsync=policy)
            try:
                enrolls = 0

                def enroll():
                    nonlocal enrolls
                    store.enroll(client_id, mask)
                    enrolls += 1

                out[f"durability.enroll_{policy}_ms"] = (
                    _quiet_seconds(enroll, budget_s) * 1e3
                )
                if policy == "always":
                    out["durability.fsyncs_per_enroll"] = (
                        store.counters()["wal_fsyncs"] / enrolls
                    )
            finally:
                store.close()
            if policy == "always":
                # Reopen over the WAL those enrollments left behind.
                started = time.perf_counter()
                DurableImageStore(data_dir, _MASTER_KEY, fsync=policy).close()
                out["durability.recovery_s"] = time.perf_counter() - started
        finally:
            shutil.rmtree(data_dir, ignore_errors=True)
    return out


def in_process(
    seed: int, seconds: float, slots: list[int], smoke: bool
) -> dict[str, float]:
    """Every in-process probe; ``seconds`` scales each probe's budget."""
    budget_s = 0.04 * seconds
    rng = np.random.default_rng((seed, 0x9B0B))
    out = _hash_probes(rng, budget_s)
    out.update(_runtime_probes(budget_s))
    out.update(_engine_probes(seed, smoke))
    out["runtime.kernel_share"] = (
        out["runtime.search_hps"] / out["hashes.sha3_256_batch_hps"]
    )
    out.update(_store_probes(slots, budget_s))
    out.update(_durability_probes(slots, budget_s))
    return out


# -- the budget ---------------------------------------------------------------


def budget_lines(m: dict[str, float]) -> list[str]:
    """Where a depth-0 request's two round trips go, each ratio with its base."""

    def rows(title: str, total: float, stages: list[tuple[str, float]]) -> list[str]:
        lines = [f"{title}: {total:.2f} ms"]
        named = 0.0
        for name, value in stages:
            named += value
            lines.append(
                f"  {name:<38} {value:8.2f} ms  {value / total:6.1%} of {total:.2f}"
            )
        lines.append(
            f"  {'remainder':<38} {total - named:8.2f} ms  "
            f"{(total - named) / total:6.1%} of {total:.2f}"
        )
        lines.append(
            f"  named stages account for {named / total:.1%} of {total:.2f} ms"
        )
        return lines

    lookup = m["puf.lookup_ms"]
    keygen = m["keygen.issue_public_key_ms"]
    return rows(
        "net.digest_rtt_d0_ms",
        m["net.digest_rtt_d0_ms"],
        [
            ("net.noop_rtt_ms (socket + framing)", m["net.noop_rtt_ms"]),
            ("submit_d0 - lookup - issue_public_key",
             m["net.submit_d0_ms"] - lookup - keygen),
            ("puf.lookup_ms", lookup),
            ("keygen.issue_public_key_ms", keygen),
        ],
    ) + rows(
        "net.handshake_rtt_ms",
        m["net.handshake_rtt_ms"],
        [
            ("net.noop_rtt_ms (socket + framing)", m["net.noop_rtt_ms"]),
            ("core.issue_challenge_ms (one lookup)", m["core.issue_challenge_ms"]),
        ],
    )
