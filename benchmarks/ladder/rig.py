"""The rig: one real CA server process and the client calls made against it.

Every TCP workload talks to a ``python -m repro.deploy.server`` OS process
over the host's loopback interface, through ``SocketTransport`` +
``build_shim("lan", ...)`` + ``NetworkClient.authenticate``, one fresh
connection per authentication, exactly as ``repro.deploy.loadgen`` does.
The server is observed from outside only: ``/proc/<pid>`` for CPU time
and memory, the ``MetricsRequest`` frame for its counters.
"""

from __future__ import annotations

import os
import shutil
import sys
import tempfile
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from repro.deploy.enrollment import (
    build_client_device,
    build_fleet_record,
    client_identity,
)
from repro.deploy.loadgen import classify_failure, spec_to_json
from repro.deploy.supervisor import ProcessSupervisor
from repro.deploy.topology import TopologySpec
from repro.deploy.wan import build_shim
from repro.net.client import NetworkClient
from repro.net.messages import MetricsSnapshot
from repro.net.sockets import RemoteCAServer, SocketTransport

from tracer import Tracer

__all__ = [
    "REPO",
    "SCRATCH",
    "TOPOLOGY",
    "DURABLE_TOPOLOGY",
    "FLEET_SEED",
    "MIN_CLEAN_SLOTS",
    "RigError",
    "Op",
    "Server",
    "Client",
    "natural_distance",
    "clean_slots",
    "confirm_slots",
    "expected_distance",
    "scratch_dir",
    "reset_own_peak_rss",
    "quiet",
]

REPO = Path(__file__).resolve().parents[2]
#: Everything a run writes (WAL directories, records, trace.json) lands
#: here; the directory is listed in the root ``.gitignore``.
SCRATCH = REPO / ".ladder_scratch"

#: The one deployment every TCP workload shares. One server device plus
#: a one-process load generator fits the 2 cores ``nproc`` reports.
TOPOLOGY = TopologySpec(
    servers=1,
    devices=("host",),
    engine="fleet",
    hash_name="sha3-256",
    max_distance=2,
    batch_size=16384,
    clients=8,
    wan_profile="lan",
    time_budget=5.0,
)
DURABLE_TOPOLOGY = replace(TOPOLOGY, durability="always")

#: The enrolled population is part of the deployment, like ``clients=8``:
#: it is the same for every run, and ``--seed`` drives the traffic only
#: (arrival times, slot order, depth order, planted ranks). A fleet that
#: changed with the seed would change which slots are clean, how many
#: there are and how deep a depth-2 search runs, and every latency would
#: then measure the draw, not the program.
FLEET_SEED = 0
MIN_CLEAN_SLOTS = 3


def quiet(durations) -> float:
    """The quiet-host reading of repeated timings of the same work: the
    shortest, as ``timeit`` advises.

    This host's cores run at anything between full and about half speed,
    for seconds or for minutes at a time (a plain ``hashlib`` loop reads
    0.55-1.15 M/s from one quarter second to the next; the slow spells
    come from outside the VM and are not reported as steal). A mean or a
    median over a window therefore describes the neighbours: between a
    calm and a busy spell of the same code the median authentication moved
    from 74 to 107 ms and the shortest from 65 to 71 ms. Every gated
    timing is read this way: what an operation costs while nothing outside
    the program holds it up, which is the part a change to the program can
    move. Lower percentiles were tried: under a synthetic neighbour the
    2nd moved twice as far as the minimum, because the open loop has only
    ~30 unqueued shallow requests of which few meet a quiet host.
    """
    return float(min(durations))


class RigError(RuntimeError):
    """Set-up could not produce a usable rig (never a measured failure)."""


def expected_distance(depth: int) -> int:
    """The distance a correct server reports for a planted depth."""
    return depth


def scratch_dir(prefix: str) -> Path:
    SCRATCH.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=prefix, dir=SCRATCH))


@dataclass
class Op:
    """One operation a workload attempted, and what came of it."""

    kind: str  # "auth" | "enroll" | "search"
    request: int
    latency_s: float
    ok: bool
    detail: str = ""
    slot: int = -1
    depth: int = 0
    #: How long after its due time the generator fired it (open loop).
    late_s: float = 0.0
    #: Seeds the operation's search hashed, and the seconds that search
    #: took (as the server's reply states them on the TCP workloads).
    seeds: int = 0
    search_s: float = 0.0


# -- the server process --------------------------------------------------


class Server:
    """One ``repro.deploy.server`` child, observed through /proc and frames."""

    _TICKS = os.sysconf("SC_CLK_TCK")

    def __init__(self, spec: TopologySpec = TOPOLOGY):
        self.spec = spec
        self._supervisor = ProcessSupervisor(grace_seconds=20.0)
        self._data_dir: Path | None = None
        self.pid = 0
        self.address: tuple[str, int] = ("", 0)

    def start(self) -> float:
        """Spawn and wait for ``DEPLOY-READY``; returns the seconds it took."""
        argv = [
            sys.executable,
            "-m",
            "repro.deploy.server",
            "--spec",
            spec_to_json(self.spec),
            "--seed",
            str(FLEET_SEED),
        ]
        if self.spec.durability:
            self._data_dir = scratch_dir("wal-")
            argv += ["--data-dir", str(self._data_dir)]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(REPO / "src"), env.get("PYTHONPATH")])
        )
        started = time.perf_counter()
        managed = self._supervisor.spawn(
            "server",
            argv,
            env=env,
            ready_regex=r"DEPLOY-READY (\S+) (\d+)",
            ready_timeout=60.0,
        )
        ready_s = time.perf_counter() - started
        self.pid = managed.popen.pid
        assert managed.ready_match is not None
        self.address = (
            managed.ready_match.group(1),
            int(managed.ready_match.group(2)),
        )
        return ready_s

    def stop(self) -> tuple[float, bool]:
        """SIGTERM; returns (seconds to exit, exited 0 after DEPLOY-DRAINED)."""
        started = time.perf_counter()
        codes = self._supervisor.teardown()
        drain_s = time.perf_counter() - started
        clean = codes.get("server") == 0 and "DEPLOY-DRAINED" in (
            self._supervisor.output_of("server")
        )
        if self._data_dir is not None:
            shutil.rmtree(self._data_dir, ignore_errors=True)
        return drain_s, clean

    def cpu_seconds(self) -> float:
        """utime + stime of the server process, from /proc/<pid>/stat."""
        stat = Path(f"/proc/{self.pid}/stat").read_text()
        # The command name may hold spaces; fields resume after its ")".
        fields = stat.rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / self._TICKS

    def peak_rss_mb(self) -> float:
        return _vm_hwm_mb(self.pid)

    def scrape(self) -> MetricsSnapshot:
        """The server's counters, over the existing MetricsRequest frame."""
        with SocketTransport(*self.address) as transport:
            return RemoteCAServer(transport).fetch_metrics()


def _vm_hwm_mb(pid: int | str) -> float:
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RigError(f"/proc/{pid}/status has no VmHWM line")


def own_peak_rss_mb() -> float:
    return _vm_hwm_mb("self")


def reset_own_peak_rss() -> None:
    """Start this process's ``VmHWM`` again from its present size, so that
    a workload run after others in one process reads its own peak."""
    try:
        Path("/proc/self/clear_refs").write_text("5")
    except OSError:
        pass  # an older kernel: the peak then covers the whole process


# -- client calls ----------------------------------------------------------


class _SpannedServer:
    """RemoteCAServer with a span around each protocol round trip."""

    def __init__(self, remote: RemoteCAServer, tracer: Tracer, request: int, parent):
        self._remote, self._tracer = remote, tracer
        self._request, self._parent = request, parent

    def handle_handshake(self, request):
        with self._tracer.span("handshake", self._request, self._parent):
            return self._remote.handle_handshake(request)

    def handle_digest(self, submission):
        with self._tracer.span("digest", self._request, self._parent):
            return self._remote.handle_digest(submission)


class _SpannedDevice:
    """ClientDevice with a span around the PUF read + hash."""

    def __init__(self, device, tracer: Tracer, request: int, parent):
        self.client_id = device.client_id
        self._device, self._tracer = device, tracer
        self._request, self._parent = request, parent

    def respond(self, challenge, reference_mask=None):
        with self._tracer.span("respond", self._request, self._parent):
            return self._device.respond(challenge, reference_mask=reference_mask)


class Client:
    """The load generator's side of one server: authenticate, enroll, no-op."""

    def __init__(self, address: tuple[str, int], seed: int, tracer: Tracer):
        self.address = address
        self.seed = seed
        self.tracer = tracer
        #: Seeds one authentication of (slot, depth) makes the server hash;
        #: ``confirm_slots`` counts them. The reply carries the search's
        #: seconds but not its seeds, and a fresh device's first read is
        #: deterministic, so the count holds for every later request.
        self.seeds_hashed: dict[tuple[int, int], int] = {}

    def _transport(self, request: int) -> SocketTransport:
        shim = build_shim(TOPOLOGY.wan_profile, self.seed, link_index=request)
        return SocketTransport(*self.address, shim=shim)

    @staticmethod
    def device(slot: int, depth: int):
        """A fresh device for one request (its first read is deterministic).

        Built before the timed interval, as its ~0.7 ms is rig cost.
        """
        return build_client_device(FLEET_SEED, slot, TOPOLOGY.num_cells, depth)

    def authenticate(
        self,
        slot: int,
        depth: int,
        request: int,
        device=None,
        due: float | None = None,
    ) -> Op:
        """One authentication on a fresh connection, timed from ``due``
        (open loop) or from the call (closed loop), connect included."""
        _cid, puf_device, mask = device or self.device(slot, depth)
        transport = self._transport(request)
        tracer = self.tracer
        started = time.perf_counter()
        origin = started if due is None else due
        op = Op("auth", request, 0.0, False, slot=slot, depth=depth,
                late_s=started - origin)
        try:
            with tracer.span("request", request) as root:
                with tracer.span("connect", request, root):
                    transport.connect()
                client = NetworkClient(
                    _SpannedDevice(puf_device, tracer, request, root),
                    transport,
                    reference_mask=mask,
                    rng=np.random.default_rng((self.seed, request)),
                )
                result = client.authenticate(
                    _SpannedServer(RemoteCAServer(transport), tracer, request, root)
                )
            op.latency_s = time.perf_counter() - origin
            op.search_s = result.search_seconds
            op.seeds = self.seeds_hashed.get((slot, depth), 0)
            if not result.authenticated:
                op.detail = "timed-out" if result.timed_out else "denied"
            elif result.distance != expected_distance(depth):
                op.detail = f"distance {result.distance} for planted depth {depth}"
            elif client.last_attempts != 1:
                op.detail = f"{client.last_attempts} attempts"
            else:
                op.ok = True
        except Exception as exc:  # a failed op is counted, never raised
            op.latency_s = time.perf_counter() - origin
            op.detail = classify_failure(exc)
        finally:
            transport.close()
        return op

    def enroll(self, slot: int, request: int, previous_version: int) -> tuple[Op, int]:
        """Re-enroll one slot; correct iff acknowledged at a higher version."""
        transport = self._transport(request)
        started = time.perf_counter()
        op = Op("enroll", request, 0.0, False, slot=slot)
        version = previous_version
        try:
            with self.tracer.span("enroll", request):
                reply = RemoteCAServer(transport).enroll(client_identity(slot))
            op.latency_s = time.perf_counter() - started
            if not reply.enrolled:
                op.detail = "not acknowledged"
            elif reply.version <= previous_version:
                op.detail = f"version {reply.version} after {previous_version}"
            else:
                op.ok = True
                version = reply.version
        except Exception as exc:  # a failed op is counted, never raised
            op.latency_s = time.perf_counter() - started
            op.detail = classify_failure(exc)
        finally:
            transport.close()
        return op, version

    def enrolled_version(self, slot: int) -> int:
        with SocketTransport(*self.address) as transport:
            return RemoteCAServer(transport).enroll(
                client_identity(slot), probe=True
            ).version

    def noop(self, request: int) -> None:
        """A no-work round trip on a fresh connection: the transport floor."""
        transport = self._transport(request)
        try:
            with self.tracer.span("noop-request", request) as root:
                with self.tracer.span("connect", request, root):
                    transport.connect()
                with self.tracer.span("noop", request, root):
                    RemoteCAServer(transport).fetch_metrics()
        finally:
            transport.close()


# -- clean slots -----------------------------------------------------------


def natural_distance(slot: int) -> int:
    """Bits by which a fresh device's first read misses the enrolled image.

    ``inject_noise_to_distance`` only raises the distance, so a slot whose
    natural read is already off serves a deeper search than was planted.
    The first read after enrollment is deterministic, so this in-process
    replay of it predicts what the server will see.
    """
    _cid, puf, mask = build_fleet_record(FLEET_SEED, slot, TOPOLOGY.num_cells)
    bits = puf.read(mask.address, mask.usable.shape[0]).bits[mask.usable]
    reference = mask.reference_seed_bits(256)
    return int(np.count_nonzero(bits[:256] != reference))


def clean_slots() -> tuple[list[int], list[int]]:
    """(clean, noisy) fleet slots by their predicted natural distance."""
    clean, noisy = [], []
    for slot in range(TOPOLOGY.clients):
        (noisy if natural_distance(slot) else clean).append(slot)
    return clean, noisy


def confirm_slots(
    server: Server,
    client: Client,
    slots: list[int],
    depths: tuple[int, ...],
    first_request: int,
) -> list[int]:
    """Keep the slots that authenticate at exactly every planted depth in
    one attempt against the live server; doubles as the warm-up, and
    counts the seeds each (slot, depth) makes the server hash."""
    confirmed = []
    request = first_request
    hashed = server.scrape().counters["seeds_hashed"]
    for slot in slots:
        ops = []
        for depth in depths:
            ops.append(client.authenticate(slot, depth, request))
            request += 1
            before, hashed = hashed, server.scrape().counters["seeds_hashed"]
            client.seeds_hashed[slot, depth] = int(hashed - before)
        if all(op.ok for op in ops):
            confirmed.append(slot)
    if len(confirmed) < MIN_CLEAN_SLOTS:
        raise RigError(
            f"only {len(confirmed)} clean slots of {TOPOLOGY.clients}; "
            f"need {MIN_CLEAN_SLOTS}"
        )
    return confirmed
