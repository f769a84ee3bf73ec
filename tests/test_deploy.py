"""Deployment harness: framing, sockets, WAN shim, supervisor, storms.

Covers the wire layer (incremental CRC-frame reassembly under arbitrary
partial-read boundaries, bounded length prefixes, the admin metrics
message family), socket<->in-process byte equivalence on the full
message matrix, deterministic WAN emulation, real-process supervision
(readiness gating, restart, SIGTERM teardown), the signal-safety
regression (SIGTERM during an in-flight search must drain typed, never
hang), and a miniature end-to-end lan storm over real OS processes.
"""

from __future__ import annotations

import dataclasses
import json
import random
import re
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from repro import quick_setup
from repro.deploy.enrollment import (
    VerifyingAuthority,
    build_client_device,
    build_fleet_record,
)
from repro.deploy.loadgen import (
    classify_failure,
    spec_from_json,
    spec_to_json,
)
from repro.deploy.storm import (
    ProfileReport,
    _drained,
    profile_failures,
    run_profile,
)
from repro.deploy.supervisor import (
    ProcessDied,
    ProcessSupervisor,
    RestartBudgetExhausted,
    RestartPolicy,
)
from repro.deploy.topology import ENGINE_MODES, TopologySpec
from repro.deploy.trace import generate_trace
from repro.deploy.wan import WAN_PROFILES, build_shim
from repro.devices.flaky import DeviceFailure
from repro.durability.errors import CheckpointCorrupt, WalCorrupt
from repro.net.client import NetworkClient
from repro.net.concurrent import ConcurrentCAServer
from repro.net.errors import (
    ConnectionLost,
    FrameTooLarge,
    MessageCorrupted,
    MessageDropped,
    ServerBusy,
    ServerClosed,
    TransportError,
)
from repro.net.messages import (
    FRAME_HEADER_BYTES,
    AuthenticationResult,
    DigestSubmission,
    ErrorReply,
    FrameDecoder,
    HandshakeRequest,
    HandshakeResponse,
    MetricsRequest,
    MetricsSnapshot,
    encode_frame,
    peek_frame_kind,
)
from repro.net.server import CAServer
from repro.net.sockets import (
    RemoteCAServer,
    SocketCAServer,
    SocketTransport,
    error_reply_for,
    raise_error_reply,
)
from repro.net.transport import InProcessTransport
from repro.refusals import Refusal, RequestShed
from repro.reliability.breaker import CircuitOpenError
from repro.reliability.retry import RetriesExhausted


def _child_env() -> dict[str, str]:
    import os

    import repro

    src = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = src
    return env


def _stat_fields(pid: int) -> list[str] | None:
    """``/proc/<pid>/stat`` after the command name (state, ppid, ...), or
    None once the process is gone from the table."""
    try:
        return Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    except OSError:
        return None


def _children_of(pid: int) -> list[int]:
    """The process's children (a ``fleet`` server hashes on threads and
    has none)."""
    children = []
    for entry in Path("/proc").iterdir():
        fields = _stat_fields(int(entry.name)) if entry.name.isdigit() else None
        if fields is not None and int(fields[1]) == pid:
            children.append(int(entry.name))
    return children


# ---------------------------------------------------------------------------
# Frame reassembly


class TestFrameDecoder:
    def _sample_frames(self) -> list[bytes]:
        return [
            HandshakeRequest(client_id="dep-0001").to_bytes(),
            DigestSubmission(client_id="dep-0001", digest=b"\x01" * 32).to_bytes(),
            MetricsRequest().to_bytes(),
            ErrorReply(kind="busy", detail="queue full").to_bytes(),
            b"x",  # minimal 1-byte body
            b"y" * 4096,
        ]

    def test_fuzzed_chunk_boundaries(self):
        """Reassembly is exact for every partial-read pattern."""
        frames = self._sample_frames()
        stream = b"".join(encode_frame(f) for f in frames)
        rng = np.random.default_rng(1234)
        for trial in range(50):
            decoder = FrameDecoder()
            out: list[bytes] = []
            position = 0
            while position < len(stream):
                # Chunk sizes from 1 byte to several frames at once.
                size = int(rng.integers(1, 1500))
                out.extend(decoder.feed(stream[position : position + size]))
                position += size
            assert out == frames, f"trial {trial} mismatched"
            assert decoder.pending_bytes == 0
            assert decoder.frames_decoded == len(frames)

    def test_byte_at_a_time_and_torn_length_prefix(self):
        frames = self._sample_frames()
        stream = b"".join(encode_frame(f) for f in frames)
        decoder = FrameDecoder()
        out = []
        for i in range(len(stream)):
            out.extend(decoder.feed(stream[i : i + 1]))
        assert out == frames
        # A torn prefix alone yields nothing and buffers correctly.
        tear = FrameDecoder()
        assert tear.feed(encode_frame(b"abc")[: FRAME_HEADER_BYTES - 1]) == []
        assert tear.pending_bytes == FRAME_HEADER_BYTES - 1

    def test_interleaved_connections_stay_independent(self):
        """Two decoders fed interleaved chunks never cross-contaminate."""
        frames_a = [b"conn-a-" + bytes([i]) * 64 for i in range(4)]
        frames_b = [b"conn-b-" + bytes([i]) * 256 for i in range(4)]
        stream_a = b"".join(encode_frame(f) for f in frames_a)
        stream_b = b"".join(encode_frame(f) for f in frames_b)
        dec_a, dec_b = FrameDecoder(), FrameDecoder()
        out_a: list[bytes] = []
        out_b: list[bytes] = []
        rng = np.random.default_rng(7)
        pos_a = pos_b = 0
        while pos_a < len(stream_a) or pos_b < len(stream_b):
            size = int(rng.integers(1, 97))
            if (rng.random() < 0.5 and pos_a < len(stream_a)) or pos_b >= len(
                stream_b
            ):
                out_a.extend(dec_a.feed(stream_a[pos_a : pos_a + size]))
                pos_a += size
            else:
                out_b.extend(dec_b.feed(stream_b[pos_b : pos_b + size]))
                pos_b += size
        assert out_a == frames_a
        assert out_b == frames_b

    def test_oversized_prefix_is_typed_before_allocation(self):
        decoder = FrameDecoder(max_frame_bytes=1024)
        header = (4096).to_bytes(4, "big")
        with pytest.raises(FrameTooLarge) as excinfo:
            decoder.feed(header + b"garbage")
        assert excinfo.value.claimed == 4096
        assert excinfo.value.limit == 1024
        assert isinstance(excinfo.value, MessageCorrupted)
        # Poisoned: the stream lost sync, further input is refused.
        with pytest.raises(MessageCorrupted):
            decoder.feed(b"more")

    def test_zero_length_prefix_is_corrupt(self):
        decoder = FrameDecoder()
        with pytest.raises(MessageCorrupted):
            decoder.feed(b"\x00\x00\x00\x00")

    def test_encode_frame_bounds(self):
        with pytest.raises(ValueError):
            encode_frame(b"")
        with pytest.raises(FrameTooLarge):
            encode_frame(b"z" * (1 << 21))
        framed = encode_frame(b"abc")
        assert framed == b"\x00\x00\x00\x03abc"


# ---------------------------------------------------------------------------
# Admin message family


class TestMetricsMessages:
    def test_metrics_snapshot_round_trip(self):
        snapshot = MetricsSnapshot(
            counters={"completed": 3.0, "authenticated": 2.0},
            shed_reasons={"deadline": 1},
            tenants={"acme": {"completed": 1.0}},
            false_authentications=1,
        )
        parsed = MetricsSnapshot.from_bytes(snapshot.to_bytes())
        assert parsed == snapshot

    def test_optional_fields_omitted_on_wire(self):
        """PR 7's omitted-field contract: empty/zero fields leave no bytes."""
        minimal = MetricsSnapshot(counters={"completed": 1.0})
        body = json.loads(minimal.to_bytes().decode())
        assert "shed_reasons" not in body
        assert "tenants" not in body
        assert "false_authentications" not in body
        assert MetricsSnapshot.from_bytes(minimal.to_bytes()) == minimal
        request = MetricsRequest()
        assert "include_tenants" not in json.loads(request.to_bytes().decode())
        assert MetricsRequest.from_bytes(request.to_bytes()) == request
        tenanted = MetricsRequest(include_tenants=True)
        assert json.loads(tenanted.to_bytes().decode())["include_tenants"] is True

    def test_error_reply_round_trip_and_kinds(self):
        reply = ErrorReply(kind="shed", reason="deadline_expired", detail="too slow")
        assert ErrorReply.from_bytes(reply.to_bytes()) == reply
        with pytest.raises(ValueError):
            ErrorReply(kind="nonsense")
        with pytest.raises(RequestShed):
            from repro.net.sockets import raise_error_reply

            raise_error_reply(reply)

    def test_error_reply_for_maps_admission_failures(self):
        assert error_reply_for(RuntimeError("queue full")).kind == "error"
        assert error_reply_for(RequestShed(Refusal.DEADLINE_EXPIRED)).kind == "shed"
        assert error_reply_for(MessageCorrupted("bad")).kind == "corrupt"
        assert error_reply_for(ValueError("x")).kind == "error"

    def test_peek_frame_kind(self):
        assert peek_frame_kind(MetricsRequest().to_bytes()) == "metrics_request"
        with pytest.raises(MessageCorrupted):
            peek_frame_kind(b"\xff\xfe not json")
        with pytest.raises(MessageCorrupted):
            peek_frame_kind(b'{"no_type": 1}')


# ---------------------------------------------------------------------------
# The refusal table on the wire


def _refused_at_the_door() -> dict[str, Exception]:
    """The front door's two busy refusals, as a real ConcurrentCAServer
    raises them over a dispatcher whose tickets never settle."""

    class Held:
        scheduler = SimpleNamespace(policy=SimpleNamespace(tenants=None))

        def submit(self, *args, **kwargs):
            return SimpleNamespace(add_done_callback=lambda callback: None)

        def close(self, drain=True):
            pass

    authority = SimpleNamespace(
        search_service=SimpleNamespace(max_distance=1, time_threshold=None),
        enrolled_seed=lambda client_id, **kwargs: b"\x00" * 32,
    )
    server = ConcurrentCAServer(authority, max_queue=2, scheduler=Held())
    refused = {}
    for name, client_id in (
        (None, "c0"), ("duplicate", "c0"), (None, "c1"), ("saturated", "c2"),
    ):
        try:
            server.submit(client_id, b"digest")
        except Exception as exc:
            refused[name] = exc
    assert set(refused) == {"duplicate", "saturated"}
    return refused


@pytest.mark.parametrize(
    ("make", "kind", "reason"),
    [
        (lambda: WalCorrupt("/wal", 12, "crc mismatch"), "error", ""),
        (lambda: CheckpointCorrupt("/ckpt", "crc mismatch"), "error", ""),
        (lambda: CircuitOpenError(1.0), "error", ""),
        (lambda: DeviceFailure("host-1", 3), "error", ""),
        (lambda: RuntimeError("queue full"), "error", ""),
        (
            lambda: RequestShed(Refusal.TENANT_QUOTA, "tenant 'gold' out of tokens"),
            "shed", "tenant_quota",
        ),
        (lambda: _refused_at_the_door()["saturated"], "busy", ""),
        (lambda: _refused_at_the_door()["duplicate"], "busy", ""),
    ],
    ids=[
        "WalCorrupt", "CheckpointCorrupt", "CircuitOpenError",
        "DeviceFailure", "RuntimeError", "RequestShed", "door-saturated",
        "door-duplicate",
    ],
)
def test_error_reply_for_sends_each_failure_as_its_own_kind(make, kind, reason):
    """Only a refusal is a refusal: a RuntimeError is no "retry later"."""
    reply = error_reply_for(make())
    assert (reply.kind, reply.reason) == (kind, reason)
    if reason == "tenant_quota":
        assert "'gold'" in reply.detail


#: The frame each member goes out as, captured from the wire before the
#: table existed (the busy ones were then bare ``RuntimeError``s).
GOLDEN_FRAMES = {
    Refusal.SATURATED: b'{"crc":"c3e4c7f3","detail":"request shed (saturated): client \'c0\'","kind":"shed","reason":"saturated","type":"error_reply"}',
    Refusal.DEADLINE_UNMEETABLE: b'{"crc":"a7e8d447","detail":"request shed (deadline_unmeetable): client \'c0\'","kind":"shed","reason":"deadline_unmeetable","type":"error_reply"}',
    Refusal.DEADLINE_EXPIRED: b'{"crc":"95c67830","detail":"request shed (deadline_expired): client \'c0\'","kind":"shed","reason":"deadline_expired","type":"error_reply"}',
    Refusal.SHUTDOWN: b'{"crc":"2514a8b1","detail":"request shed (shutdown): client \'c0\'","kind":"shed","reason":"shutdown","type":"error_reply"}',
    Refusal.NO_HEALTHY_DEVICES: b'{"crc":"5a4c8b7f","detail":"request shed (no_healthy_devices): client \'c0\'","kind":"shed","reason":"no_healthy_devices","type":"error_reply"}',
    Refusal.TENANT_QUOTA: b'{"crc":"3ae7ebf8","detail":"request shed (tenant_quota): client \'c0\'","kind":"shed","reason":"tenant_quota","type":"error_reply"}',
    Refusal.DOOR_SATURATED: b'{"crc":"d2031de5","detail":"server saturated; retry later","kind":"busy","type":"error_reply"}',
    Refusal.DUPLICATE_IN_FLIGHT: b'{"crc":"79a8b645","detail":"client \'c0\' already has a search in flight","kind":"busy","type":"error_reply"}',
    Refusal.CLOSED: b'{"crc":"ad6ebc55","detail":"server is closed","kind":"closed","type":"error_reply"}',
    Refusal.CORRUPT: b'{"crc":"67e69723","detail":"unserveable frame type \'x\'","kind":"corrupt","type":"error_reply"}',
}

#: ``classify_failure`` of each member: the strings the load generator
#: (and the benchmark ladder) write into every failed operation.
CLASSIFIED = {
    Refusal.SATURATED: "shed:saturated",
    Refusal.DEADLINE_UNMEETABLE: "shed:deadline_unmeetable",
    Refusal.DEADLINE_EXPIRED: "shed:deadline_expired",
    Refusal.SHUTDOWN: "shed:shutdown",
    Refusal.NO_HEALTHY_DEVICES: "shed:no_healthy_devices",
    Refusal.TENANT_QUOTA: "shed:tenant_quota",
    Refusal.DOOR_SATURATED: "busy",
    Refusal.DUPLICATE_IN_FLIGHT: "busy",
    Refusal.CLOSED: "closed",
    Refusal.CORRUPT: "corrupt",
}


def _raised_as(refusal: Refusal) -> Exception:
    """One exception carrying ``refusal``, worded as the server words it."""
    if refusal.kind == "shed":
        return RequestShed(refusal, "client 'c0'")
    if refusal is Refusal.DOOR_SATURATED:
        return _refused_at_the_door()["saturated"]
    if refusal is Refusal.DUPLICATE_IN_FLIGHT:
        return _refused_at_the_door()["duplicate"]
    if refusal is Refusal.CLOSED:
        return ServerClosed("server is closed")
    return MessageCorrupted("unserveable frame type 'x'")


class TestRefusalTable:
    @pytest.mark.parametrize("refusal", list(Refusal), ids=lambda r: r.name)
    def test_every_member_round_trips_the_wire_byte_identically(self, refusal):
        exc = _raised_as(refusal)
        assert Refusal.of(exc) is refusal
        raw = error_reply_for(exc).to_bytes()
        assert raw == GOLDEN_FRAMES[refusal]
        with pytest.raises(Exception) as raised:
            raise_error_reply(ErrorReply.from_bytes(raw))
        back = Refusal.of(raised.value)
        assert (back.kind, back.reason) == (refusal.kind, refusal.reason)
        assert classify_failure(exc) == CLASSIFIED[refusal]
        assert classify_failure(raised.value) == CLASSIFIED[refusal]

    def test_every_member_has_a_raise_site(self):
        src = Path(__file__).resolve().parents[1] / "src" / "repro"
        text = "\n".join(
            path.read_text() for path in src.rglob("*.py")
            if path.name != "refusals.py"
        )
        unraised = [
            refusal.name for refusal in Refusal
            if not re.search(rf"\bRefusal\.{refusal.name}\b", text)
        ]
        assert unraised == []

    def test_link_faults_and_untyped_replies(self):
        assert classify_failure(MessageDropped("x", 0.1)) == "dropped"
        assert classify_failure(ConnectionLost("gone")) == "connection-lost"
        assert classify_failure(FrameTooLarge(10, 5)) == "corrupt"
        assert classify_failure(TransportError("?")) == "transport"
        # No member goes out as these: the client sees a TransportError.
        for reply in (
            ErrorReply(kind="error", detail="KeyError: 'c9'"),
            ErrorReply(kind="shed", reason="no_such_reason"),
        ):
            with pytest.raises(TransportError) as raised:
                raise_error_reply(reply)
            assert Refusal.of(raised.value) is None

    def test_one_vocabulary_and_no_sched_package(self):
        root = Path(__file__).resolve().parents[1]
        assert not (root / "src" / "repro" / "sched").exists()
        gone = re.compile(
            r"repro\.sched|SHED_[A-Z]|Scheduler(?:Closed|Error)|_directory_(?:shed)"
        )
        for folder in ("src", "tests", "examples", "benchmarks"):
            for path in (root / folder).rglob("*.py"):
                assert not gone.search(path.read_text()), path
        for name in ("net/sockets.py", "net/concurrent.py", "reliability/chaos.py"):
            assert "RuntimeError" not in (root / "src" / "repro" / name).read_text()


# ---------------------------------------------------------------------------
# Socket <-> in-process equivalence


class TestSocketEquivalence:
    def test_full_message_matrix_over_the_wire(self):
        """Every request frame round-trips the socket byte-identically."""
        authority, _client, _mask = quick_setup(
            seed=3, hash_name="sha1", max_distance=1, noise_target_distance=1
        )
        server = SocketCAServer(CAServer(authority))
        host, port = server.start()
        try:
            transport = SocketTransport(host, port)
            # Handshake: the reply must parse as exactly the frame the
            # local CAServer would have produced.
            request = HandshakeRequest(client_id="client-0")
            raw = transport.request("handshake-request", request.to_bytes())
            local = CAServer(authority).handle_handshake(request)
            assert HandshakeResponse.from_bytes(raw) == local
            assert raw == local.to_bytes()
            # Metrics on a plain CAServer: empty but well-formed.
            raw = transport.request("metrics", MetricsRequest().to_bytes())
            assert MetricsSnapshot.from_bytes(raw).counters == {}
            # Unserveable frame type -> typed corrupt refusal.
            raw = transport.request(
                "bogus", AuthenticationResult(
                    client_id="client-0", authenticated=False, distance=None,
                    public_key=None, search_seconds=0.0, timed_out=False,
                ).to_bytes(),
            )
            assert peek_frame_kind(raw) == "error_reply"
            assert ErrorReply.from_bytes(raw).kind == "corrupt"
            transport.close()
        finally:
            server.close()

    def test_network_client_agrees_with_in_process_path(self):
        """The same device authenticates identically over both transports."""
        seed = 11
        authority, client_device, mask = quick_setup(
            seed=seed, hash_name="sha1", max_distance=2,
            noise_target_distance=2,
        )
        in_process = NetworkClient(
            client_device, InProcessTransport(), reference_mask=mask,
            rng=np.random.default_rng(0),
        )
        local_result = in_process.authenticate(CAServer(authority))

        # Fresh identical world for the socket path (the PUF rng advanced).
        authority2, client_device2, mask2 = quick_setup(
            seed=seed, hash_name="sha1", max_distance=2,
            noise_target_distance=2,
        )
        server = SocketCAServer(CAServer(authority2))
        host, port = server.start()
        try:
            transport = SocketTransport(host, port)
            remote = NetworkClient(
                client_device2, transport, reference_mask=mask2,
                rng=np.random.default_rng(0),
            )
            socket_result = remote.authenticate(RemoteCAServer(transport))
            transport.close()
        finally:
            server.close()
        assert socket_result.authenticated and local_result.authenticated
        assert socket_result.distance == local_result.distance
        assert socket_result.client_id == local_result.client_id
        # Both paths issue a key derived from the same found seed.
        assert socket_result.public_key == local_result.public_key

    def test_connection_refused_is_typed(self):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        _, dead_port = probe.getsockname()
        probe.close()
        transport = SocketTransport(
            "127.0.0.1", dead_port, connect_timeout_seconds=1.0
        )
        with pytest.raises(ConnectionLost):
            transport.request("x", b"payload")

    def test_finished_connection_threads_are_dropped(self):
        """One thread per connection must not mean one list entry forever."""
        server = SocketCAServer(object())  # metrics frames need no authority
        host, port = server.start()
        frame = MetricsRequest().to_bytes()
        try:
            for _ in range(300):
                transport = SocketTransport(host, port)
                MetricsSnapshot.from_bytes(transport.request("metrics", frame))
                transport.close()
            held = [SocketTransport(host, port) for _ in range(3)]
            for transport in held:
                transport.request("metrics", frame)
            assert server.connections_accepted == 303
            # Finished threads leave at the next accept; the slack covers
            # the few still between their last recv and their exit.
            assert len(server._threads) <= 16
            live = [t for t in server._threads if t.is_alive()]
            assert len(live) >= len(held)
        finally:
            server.close()
        # close() still joins the threads of the connections left open.
        assert not any(t.is_alive() for t in live)
        for transport in held:
            transport.close()


# ---------------------------------------------------------------------------
# WAN emulation


class TestWanShim:
    def test_profiles_validate(self):
        assert set(WAN_PROFILES) == {"lan", "wan", "lossy-wan"}
        for profile in WAN_PROFILES.values():
            assert profile.one_way_seconds >= 0

    def test_same_seed_same_faults(self):
        sleeps_a: list[float] = []
        sleeps_b: list[float] = []
        shim_a = build_shim("lossy-wan", seed=5, link_index=2,
                            sleep=sleeps_a.append)
        shim_b = build_shim("lossy-wan", seed=5, link_index=2,
                            sleep=sleeps_b.append)
        payload = b"p" * 128
        for shim, sink in ((shim_a, sleeps_a), (shim_b, sleeps_b)):
            for i in range(60):
                try:
                    shim.apply(f"frame-{i}", payload)
                except MessageDropped:
                    pass
        assert shim_a.fault_log == shim_b.fault_log
        assert sleeps_a == sleeps_b
        assert shim_a.fault_log, "lossy-wan must actually fault frames"

    def test_different_links_draw_different_streams(self):
        shim_a = build_shim("lossy-wan", seed=5, link_index=0, sleep=lambda _s: None)
        shim_b = build_shim("lossy-wan", seed=5, link_index=1, sleep=lambda _s: None)
        def faults(shim):
            log = []
            for i in range(80):
                try:
                    shim.apply(f"frame-{i}", b"q" * 64)
                except MessageDropped:
                    pass
            return shim.fault_log
        assert faults(shim_a) != faults(shim_b)

    def test_drop_raises_typed_after_bounded_wait(self):
        slept: list[float] = []
        shim = build_shim("lossy-wan", seed=1, link_index=0, sleep=slept.append)
        raised = False
        for i in range(200):
            try:
                shim.apply(f"frame-{i}", b"z" * 32)
            except MessageDropped:
                raised = True
                break
        assert raised, "an 8% drop rate must fire within 200 frames"
        profile = WAN_PROFILES["lossy-wan"]
        assert slept[-1] == pytest.approx(profile.drop_wait_seconds)

    def test_corrupt_flips_bytes_caught_by_crc(self):
        shim = build_shim("lossy-wan", seed=3, link_index=0, sleep=lambda _s: None)
        original = HandshakeRequest(client_id="dep-0000").to_bytes()
        for i in range(300):
            mutated = None
            try:
                mutated = shim.apply(f"frame-{i}", original)
            except MessageDropped:
                continue
            if mutated != original:
                with pytest.raises(MessageCorrupted):
                    HandshakeRequest.from_bytes(mutated)
                return
        pytest.fail("a 4% corrupt rate must fire within 300 frames")


# ---------------------------------------------------------------------------
# Topology + trace + enrollment determinism


class TestTopologyAndTrace:
    def test_spec_validation_and_json_round_trip(self):
        spec = TopologySpec(tenants=("acme", "globex"))
        assert spec_from_json(spec_to_json(spec)) == spec
        with pytest.raises(ValueError):
            TopologySpec(wan_profile="dsl")
        with pytest.raises(ValueError):
            TopologySpec(engine="quantum")
        # One backend: no pool mode, no one-host mode and no pool width
        # to select (a one-device dispatcher is devices=("host",)).
        with pytest.raises(ValueError):
            TopologySpec(engine="fifo")
        with pytest.raises(ValueError):
            TopologySpec(engine="sched")
        assert ENGINE_MODES == ("fleet",)
        assert "workers" not in json.loads(spec_to_json(spec))
        with pytest.raises(ValueError):
            TopologySpec(servers=0)
        assert spec.with_profile("wan").wan_profile == "wan"
        assert "lan" in spec.describe()

    def test_trace_is_deterministic_heavy_tailed_and_diurnal(self):
        spec = TopologySpec(clients=6, max_distance=3)
        trace = generate_trace(spec, seed=9, requests=400,
                               duration_seconds=60.0)
        assert trace == generate_trace(spec, 9, 400, 60.0)
        hist = trace.depth_histogram()
        # Heavy tail: shallow dominates, the deepest shell persists.
        assert hist[0] > hist[3] > 0
        assert hist[0] > 400 // 3
        # Diurnal: the middle half-hour carries more than the edges.
        offsets = [e.offset_seconds for e in trace.entries]
        mid = sum(1 for o in offsets if 20.0 <= o <= 40.0)
        edges = sum(1 for o in offsets if o < 10.0 or o > 50.0)
        assert mid > edges
        assert offsets == sorted(offsets)
        # Slot partition covers the whole trace exactly once.
        a = trace.for_slots({i for i in range(6) if i % 2 == 0})
        b = trace.for_slots({i for i in range(6) if i % 2 == 1})
        assert len(a) + len(b) == len(trace.entries)

    def test_cross_process_enrollment_contract(self):
        """Server-side and client-side fleet builds derive the same mask."""
        cid_a, _puf_a, mask_a = build_fleet_record(seed=4, index=2,
                                                   num_cells=1024)
        cid_b, _puf_b, mask_b = build_fleet_record(seed=4, index=2,
                                                   num_cells=1024)
        assert cid_a == cid_b == "dep-0002"
        assert np.array_equal(mask_a.usable, mask_b.usable)
        _cid, device, _mask = build_client_device(
            seed=4, index=2, num_cells=1024, noise_target_distance=1
        )
        assert device.client_id == "dep-0002"

    def test_verifying_authority_tolerates_concurrent_same_client(self):
        """A second outstanding digest must not falsify the first."""
        authority, _client, _mask = quick_setup(
            seed=2, hash_name="sha1", max_distance=1, noise_target_distance=0
        )
        verifying = VerifyingAuthority(authority)
        from repro.hashes.registry import get_hash

        algo = get_hash("sha1")
        seed_a, seed_b = b"\x01" * 32, b"\x02" * 32
        verifying.record_digest("client-0", algo.scalar(seed_a))
        verifying.record_digest("client-0", algo.scalar(seed_b))
        verifying.issue_public_key("client-0", seed_a)
        verifying.issue_public_key("client-0", seed_b)
        assert verifying.false_authentications == 0
        verifying.record_digest("client-0", algo.scalar(seed_a))
        verifying.issue_public_key("client-0", b"\x03" * 32)
        assert verifying.false_authentications == 1

    def test_classify_failure_buckets(self):
        assert (
            classify_failure(RequestShed(Refusal.DEADLINE_EXPIRED))
            == "shed:deadline_expired"
        )
        assert classify_failure(MessageDropped("x", 0.1)) == "dropped"
        assert classify_failure(ServerBusy("q")) == "busy"
        assert classify_failure(
            RetriesExhausted(attempts=3, elapsed_seconds=1.0,
                             last_error=ConnectionLost("gone"))
        ) == "retries-exhausted:connection-lost"
        assert classify_failure(ValueError("?")) == "untyped:ValueError"

    def test_interrupt_is_not_bucketed_as_an_outcome(self, monkeypatch):
        """Ctrl-C inside an authentication must stop the load generator."""
        from repro.deploy import loadgen
        from repro.deploy.trace import TraceEntry

        def interrupted(self, server):
            raise KeyboardInterrupt

        monkeypatch.setattr(loadgen.NetworkClient, "authenticate", interrupted)
        entry = TraceEntry(
            index=0, client_index=0, offset_seconds=0.0, shell_depth=1,
            deadline_seconds=5.0, tenant="",
        )
        with pytest.raises(KeyboardInterrupt):
            loadgen._run_entry(
                entry, TopologySpec(clients=1), 3, [("127.0.0.1", 9)]
            )


# ---------------------------------------------------------------------------
# Process supervision


class TestProcessSupervisor:
    def test_readiness_gate_restart_and_teardown(self):
        supervisor = ProcessSupervisor(grace_seconds=5.0)
        child = (
            "import signal, sys, threading\n"
            "stop = threading.Event()\n"
            "signal.signal(signal.SIGTERM, lambda *_: stop.set())\n"
            "print('CHILD-READY 4242', flush=True)\n"
            "stop.wait(30)\n"
            "sys.exit(0)\n"
        )
        argv = [sys.executable, "-u", "-c", child]
        managed = supervisor.spawn(
            "child", argv, ready_regex=r"CHILD-READY (\d+)"
        )
        assert managed.ready_match is not None
        assert managed.ready_match.group(1) == "4242"
        assert supervisor.health_check() == {"child": True}
        replacement = supervisor.restart("child")
        assert replacement.restarts == 1
        assert replacement.alive
        codes = supervisor.teardown()
        assert codes == {"child": 0}

    def test_death_before_readiness_is_diagnosed(self):
        supervisor = ProcessSupervisor()
        argv = [
            sys.executable,
            "-c",
            "import sys; print('pre-crash detail'); sys.exit(3)",
        ]
        with pytest.raises(ProcessDied) as excinfo:
            supervisor.spawn("crasher", argv, ready_regex=r"NEVER-PRINTED")
        assert excinfo.value.returncode == 3
        assert "pre-crash detail" in str(excinfo.value)

    def test_sigkill_escalation_for_term_ignorer(self):
        supervisor = ProcessSupervisor(grace_seconds=0.5)
        child = (
            "import signal, time\n"
            "signal.signal(signal.SIGTERM, signal.SIG_IGN)\n"
            "print('STUBBORN-READY', flush=True)\n"
            "time.sleep(60)\n"
        )
        supervisor.spawn(
            "stubborn", [sys.executable, "-u", "-c", child],
            ready_regex=r"STUBBORN-READY",
        )
        start = time.monotonic()
        codes = supervisor.teardown()
        assert time.monotonic() - start < 10.0
        assert codes["stubborn"] == -signal.SIGKILL


# ---------------------------------------------------------------------------
# Signal safety + end-to-end storm (real processes)


class TestDeploymentProcesses:
    def _spawn_server(self, spec: TopologySpec, seed: int):
        proc = subprocess.Popen(
            [
                sys.executable, "-u", "-m", "repro.deploy.server",
                "--spec", spec_to_json(spec), "--seed", str(seed),
                "--port", "0",
            ],
            env=_child_env(),
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        assert proc.stdout is not None
        deadline = time.monotonic() + 60.0
        line = ""
        while time.monotonic() < deadline:
            line = proc.stdout.readline()
            if line.startswith("DEPLOY-READY"):
                break
        else:
            proc.kill()
            pytest.fail("server never became ready")
        _tag, host, port = line.split()
        return proc, host, int(port)

    def test_sigterm_mid_search_drains_typed_and_exits_zero(self):
        """Satellite (f) regression: SIGTERM during an in-flight search."""
        spec = TopologySpec(
            clients=2, engine="fleet", devices=("host",), time_budget=8.0,
            max_distance=2,
        )
        seed = 13
        proc, host, port = self._spawn_server(spec, seed)
        assert _children_of(proc.pid) == [], "a fleet server forks nothing"
        try:
            # Launch a real search (depth 2 keeps the device busy for a
            # beat), then SIGTERM the server while it is in flight.
            transport = SocketTransport(host, port, timeout_seconds=30.0)
            _cid, device, mask = build_client_device(
                seed, 0, spec.num_cells, noise_target_distance=2
            )
            client = NetworkClient(
                device, transport, reference_mask=mask, max_attempts=1,
            )
            import threading

            outcome: dict = {}

            def drive():
                try:
                    outcome["result"] = client.authenticate(
                        RemoteCAServer(transport)
                    )
                except BaseException as exc:
                    outcome["error"] = exc

            driver = threading.Thread(target=drive)
            driver.start()
            time.sleep(0.35)  # let the digest reach the device
            proc.send_signal(signal.SIGTERM)
            code = proc.wait(timeout=30.0)
            driver.join(timeout=30.0)
            assert not driver.is_alive(), "client must not hang"
            assert code == 0, "drain must exit cleanly"
            output = proc.stdout.read()
            assert "DEPLOY-DRAINED" in output
            # The in-flight request either drained to a real result or
            # was refused with a *typed* error — never an untyped one.
            if "error" in outcome:
                bucket = classify_failure(outcome["error"])
                assert not bucket.startswith("untyped:"), bucket
            else:
                assert outcome["result"].client_id == "dep-0000"
            transport.close()
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10.0)

    def test_mini_lan_storm_end_to_end(self, tmp_path):
        """1 WAL-backed server, one kill-9 round, then 1 loadgen's trace
        on the recovered server: real processes over real TCP."""
        spec = TopologySpec(clients=3, time_budget=3.0, engine="fleet",
                            devices=("host",), durability="always")
        report = run_profile(
            spec, seed=5, requests=5, duration_seconds=1.0,
            num_loadgens=1, time_scale=1.0, scratch_dir=tmp_path,
            crashes=1,
        )
        assert not report.failures, report.failures
        [crash] = report.rounds
        assert crash["victim"] == "server-0"
        assert crash["recovered_records"] > 0
        assert report.lost_acknowledged == 0
        assert report.acknowledged_total == 3
        assert report.restarts == 1
        # The trace ran on the restarted process: its counters are all
        # the scrape saw.
        assert report.outcomes.get("authenticated") == 5
        assert report.server_counters["completed"] == 5.0
        assert report.false_authentications == 0
        assert report.latency_p50_ms > 0
        assert report.drained
        assert list(report.server_exits) == ["server-0"]

    def test_the_storm_refuses_an_in_memory_topology(self, tmp_path):
        spec = TopologySpec(clients=2, devices=("host",))
        with pytest.raises(ValueError, match="WAL-backed"):
            run_profile(
                spec, seed=0, requests=1, duration_seconds=1.0,
                num_loadgens=1, time_scale=1.0, scratch_dir=tmp_path,
            )


def _clean_lan_report(**changes) -> ProfileReport:
    """A lan profile report that broke nothing, with ``changes`` applied."""
    return dataclasses.replace(ProfileReport(
        profile="lan", requests=4, outcomes={"authenticated": 4},
        latency_p50_ms=10.0, latency_p99_ms=20.0, throughput_rps=2.0,
        wall_seconds=2.0, server_counters={"completed": 4.0},
        shed_reasons={}, false_authentications=0,
        rounds=[{"round_index": 0, "victim": "server-0",
                 "acked_before_kill": 2, "refused_during_outage": 2,
                 "recovered_records": 6, "recovery_seconds": 0.002,
                 "lost_acknowledged": 0, "reenrolled": 4,
                 "refused_after_restart": 0}],
        acknowledged_total=4, restarts=1, durable_enroll_rps=100.0,
        server_exits={"server-0": 0}, drained=True,
    ), **changes)


class TestStormGates:
    """The composed storm's exit-1 conditions, one broken invariant per
    row, without a process: each must come out as its own named failure."""

    def test_a_clean_report_passes(self):
        assert profile_failures(_clean_lan_report(), requests=4) == []

    @pytest.mark.parametrize(
        "changes, requests, named",
        [
            ({"lost_acknowledged": 1}, 4,
             "1 acknowledged enrollment(s) lost across kill-9"),
            ({"nonce_reuse_trips": 2}, 4,
             "nonce-reuse tripwire fired 2 time(s)"),
            ({"rounds": [{"round_index": 0, "refused_after_restart": 3}]}, 4,
             "round 0: 3 enrollment(s) refused after restart"),
            ({"profile": "wan", "untyped": [{"outcome": "untyped:KeyError"}],
              "outcomes": {"authenticated": 3, "untyped:KeyError": 1}}, 4,
             "1 untyped refusal(s): ['untyped:KeyError']"),
            ({"outcomes": {"authenticated": 3, "deadline": 1}}, 4,
             "lan must authenticate everything: 3/4"),
            ({"drained": False, "server_exits": {"server-0": 0, "lossy-0": 1}},
             4, "unclean server shutdown: exits {'server-0': 0, 'lossy-0': 1}"),
            ({"false_authentications": 1}, 4, "1 false authentication(s)"),
            ({"requests": 3, "outcomes": {"authenticated": 3}}, 4,
             "1 request(s) lost"),
        ],
        ids=[
            "lost-acknowledged", "nonce-trip", "refused-after-restart",
            "untyped", "lan-short", "unclean-drain", "false-auth",
            "lost-request",
        ],
    )
    def test_each_broken_invariant_is_named(self, changes, requests, named):
        assert profile_failures(
            _clean_lan_report(**changes), requests=requests
        ) == [named]

    def test_a_lossy_wan_profile_may_fall_short_of_everything(self):
        report = _clean_lan_report(
            profile="lossy-wan", outcomes={"authenticated": 3, "dropped": 1}
        )
        assert profile_failures(report, requests=4) == []


@pytest.mark.parametrize(
    "lossy_exit, lossy_printed, drained",
    [(0, True, True), (-11, True, False), (0, False, False)],
    ids=["drained", "crashed-on-sigterm", "exited-without-draining"],
)
def test_the_drain_check_holds_the_lossy_server_too(
    lossy_exit, lossy_printed, drained
):
    """Every server the storm spawned is held to the drain, not only the
    ``server-{i}`` names."""
    printed = {"server-0", "server-1"} | ({"lossy-0"} if lossy_printed else set())
    supervisor = SimpleNamespace(
        output_of=lambda name: ["DEPLOY-DRAINED"] if name in printed else []
    )
    exits = {"server-0": 0, "server-1": 0, "lossy-0": lossy_exit}
    assert _drained(supervisor, exits) is drained


# ---------------------------------------------------------------------------
# Crash-restart: SIGKILL teardown, restart policy, durable recovery


_SLEEPER_CHILD = (
    "import time\n"
    "print('CHILD-READY 1', flush=True)\n"
    "time.sleep(60)\n"
)


class TestRestartPolicy:
    def test_backoff_is_exponential_capped_and_jittered(self):
        policy = RestartPolicy(
            max_restarts=10, backoff_base_seconds=0.1,
            backoff_cap_seconds=0.4, jitter_fraction=0.5, seed=7,
        )
        rng = random.Random(7)
        for n, base in ((1, 0.1), (2, 0.2), (3, 0.4), (4, 0.4), (9, 0.4)):
            delay = policy.delay_for(n, rng)
            assert base <= delay <= base * 1.5, (n, delay)

    def test_jitter_is_reproducible_per_seed(self):
        policy = RestartPolicy(seed=3)
        first = [policy.delay_for(n, random.Random(3)) for n in (1, 2, 3)]
        second = [policy.delay_for(n, random.Random(3)) for n in (1, 2, 3)]
        assert first == second

    def test_validation(self):
        with pytest.raises(ValueError):
            RestartPolicy(max_restarts=-1)
        with pytest.raises(ValueError):
            RestartPolicy(jitter_fraction=1.5)
        with pytest.raises(ValueError):
            RestartPolicy().delay_for(0, random.Random(0))


class TestCrashRestart:
    def test_kill_is_sigkill_and_reaps(self):
        supervisor = ProcessSupervisor(grace_seconds=5.0)
        supervisor.spawn(
            "victim", [sys.executable, "-u", "-c", _SLEEPER_CHILD],
            ready_regex=r"CHILD-READY",
        )
        code = supervisor.kill("victim")
        assert code == -signal.SIGKILL
        assert supervisor.health_check() == {"victim": False}
        supervisor.teardown()

    def test_restart_sleeps_policy_backoff(self):
        slept: list[float] = []
        supervisor = ProcessSupervisor(
            grace_seconds=5.0,
            restart_policy=RestartPolicy(
                max_restarts=3, backoff_base_seconds=0.2,
                backoff_cap_seconds=1.0, jitter_fraction=0.0, seed=0,
            ),
            sleep=slept.append,
        )
        supervisor.spawn(
            "child", [sys.executable, "-u", "-c", _SLEEPER_CHILD],
            ready_regex=r"CHILD-READY",
        )
        supervisor.kill("child")
        supervisor.restart("child")
        supervisor.kill("child")
        supervisor.restart("child")
        assert slept == [pytest.approx(0.2), pytest.approx(0.4)]
        assert supervisor.restarts_total == 2
        assert supervisor.backoff_seconds_total == pytest.approx(0.6)
        supervisor.teardown()

    def test_restart_budget_exhaustion_is_typed(self):
        supervisor = ProcessSupervisor(
            grace_seconds=5.0,
            restart_policy=RestartPolicy(
                max_restarts=1, backoff_base_seconds=0.0, seed=0
            ),
            sleep=lambda _s: None,
        )
        supervisor.spawn(
            "child", [sys.executable, "-u", "-c", _SLEEPER_CHILD],
            ready_regex=r"CHILD-READY",
        )
        supervisor.kill("child")
        supervisor.restart("child")
        supervisor.kill("child")
        with pytest.raises(RestartBudgetExhausted) as excinfo:
            supervisor.restart("child")
        assert excinfo.value.name == "child"
        assert excinfo.value.budget == 1
        supervisor.teardown()

    def test_revive_dead_restarts_only_the_dead(self):
        supervisor = ProcessSupervisor(
            grace_seconds=5.0,
            restart_policy=RestartPolicy(
                max_restarts=5, backoff_base_seconds=0.0, seed=0
            ),
            sleep=lambda _s: None,
        )
        for name in ("a", "b"):
            supervisor.spawn(
                name, [sys.executable, "-u", "-c", _SLEEPER_CHILD],
                ready_regex=r"CHILD-READY",
            )
        supervisor.kill("a")
        revived = supervisor.revive_dead()
        assert revived == ["a"]
        assert supervisor.health_check() == {"a": True, "b": True}
        supervisor.teardown()

    def test_durable_server_survives_kill_9(self, tmp_path):
        """The tentpole end-to-end: enroll over TCP, kill -9, restart,
        and every acknowledged enrollment is back at its version."""
        spec = TopologySpec(
            clients=3, engine="fleet", devices=("host",), time_budget=3.0,
            durability="always",
        )
        argv = [
            sys.executable, "-u", "-m", "repro.deploy.server",
            "--spec", spec_to_json(spec), "--seed", "11",
            "--port", "0", "--data-dir", str(tmp_path / "wal"),
        ]
        supervisor = ProcessSupervisor(
            grace_seconds=15.0, restart_policy=RestartPolicy(seed=11)
        )
        try:
            managed = supervisor.spawn(
                "server", argv, ready_regex=r"DEPLOY-READY (\S+) (\d+)"
            )
            assert managed.ready_match is not None
            host = managed.ready_match.group(1)
            port = int(managed.ready_match.group(2))
            with SocketTransport(host, port) as transport:
                remote = RemoteCAServer(transport)
                acked = {
                    f"dep-{i:04d}": remote.enroll(f"dep-{i:04d}").version
                    for i in range(spec.clients)
                }
            assert _children_of(managed.popen.pid) == [], (
                "a fleet server forks nothing"
            )
            assert supervisor.kill("server") == -signal.SIGKILL

            managed = supervisor.restart("server")
            assert managed.ready_match is not None
            recovered_line = [
                line for line in supervisor.output_of("server")
                if line.startswith("DEPLOY-RECOVERED")
            ]
            assert recovered_line, "restart must report its recovery"
            host = managed.ready_match.group(1)
            port = int(managed.ready_match.group(2))
            with SocketTransport(host, port) as transport:
                remote = RemoteCAServer(transport)
                for client_id, version in acked.items():
                    reply = remote.enroll(client_id, probe=True)
                    assert reply.version >= version, client_id
                # And the recovered store still accepts new versions.
                bumped = remote.enroll("dep-0000")
                assert bumped.version > acked["dep-0000"]
                metrics = remote.fetch_metrics()
                assert metrics.counters["durable_nonce_reuse_trips"] == 0.0
        finally:
            codes = supervisor.teardown()
        assert codes["server"] == 0
