"""Real TCP transport for the Figure 1 protocol.

Everything before this module measured the serving stack in-process: the
client held a Python reference to the server and
:class:`~repro.net.transport.InProcessTransport` charged a *virtual*
clock. Here the same CRC-framed messages cross a real socket between
real OS processes, which is what the paper's end-to-end throughput
claims are actually about:

* :class:`SocketTransport` — the client side of one TCP connection.
  Byte-compatible with the in-process path: what goes on the wire is
  exactly ``message.to_bytes()``, length-prefixed by
  :func:`~repro.net.messages.encode_frame`. It also implements the
  in-process transport's accounting duck type, so
  :class:`~repro.net.client.NetworkClient` drives it unchanged — except
  that ``charge`` now *sleeps* (retry backoff takes real time) and
  ``elapsed_seconds`` reads the wall clock.
* :class:`RemoteCAServer` — the client-side stub with the same
  ``handle_handshake`` / ``handle_digest`` surface as a local
  :class:`~repro.net.server.CAServer`, plus ``fetch_metrics`` for the
  admin snapshot. Typed refusals arrive as
  :class:`~repro.net.messages.ErrorReply` frames and are re-raised as
  the matching exception type.
* :class:`SocketCAServer` — the accept loop: one thread per connection,
  incremental frame reassembly via
  :class:`~repro.net.messages.FrameDecoder`, dispatch by frame type to
  the ``handle_handshake`` / ``handle_digest`` of the server it wraps (a
  :class:`~repro.net.concurrent.ConcurrentCAServer`, or the serial
  :class:`~repro.net.server.CAServer`), every failure mapped to a typed
  ``ErrorReply`` instead of a dropped connection.

An optional *shim* (see :mod:`repro.deploy.wan`) sits on the client's
send path to emulate WAN latency, jitter, loss, and corruption with real
sleeps and real dropped frames — the deployment harness's replacement
for the virtual clock's latency model.
"""

from __future__ import annotations

import socket
import threading
import time
from typing import Callable, Protocol

from repro.net.errors import (
    ConnectionLost,
    MessageCorrupted,
    MessageDropped,
    ServerBusy,
    ServerClosed,
    TransportError,
)
from repro.net.messages import (
    MAX_FRAME_BYTES,
    AuthenticationResult,
    DigestSubmission,
    EnrollReply,
    EnrollRequest,
    ErrorReply,
    FrameDecoder,
    HandshakeRequest,
    HandshakeResponse,
    MetricsRequest,
    MetricsSnapshot,
    encode_frame,
    peek_frame_kind,
)
from repro.refusals import Refusal, RequestShed

__all__ = [
    "WireShim",
    "SocketTransport",
    "RemoteCAServer",
    "SocketCAServer",
    "raise_error_reply",
    "error_reply_for",
]

_RECV_BYTES = 65536


class WireShim(Protocol):
    """Send-path hook for WAN emulation (duck-typed, see deploy.wan)."""

    def apply(self, label: str, payload: bytes) -> bytes:
        """Delay/corrupt/drop one outgoing frame; may sleep or raise."""
        ...


class SocketTransport:
    """One client<->CA TCP connection with wall-clock accounting.

    Connection lifecycle: lazy connect on first use, automatic fresh
    connection after any failure (``ConnectionLost`` poisons the old
    socket), explicit :meth:`close`. All link failures are typed:
    timeouts surface as :class:`~repro.net.errors.MessageDropped`,
    socket breakage as :class:`~repro.net.errors.ConnectionLost`,
    framing violations as :class:`~repro.net.errors.MessageCorrupted` —
    exactly the retryable family NetworkClient's policy understands.
    """

    def __init__(
        self,
        host: str,
        port: int,
        shim: WireShim | None = None,
        timeout_seconds: float = 15.0,
        connect_timeout_seconds: float = 5.0,
        puf_read_seconds: float = 0.0,
        max_frame_bytes: int = MAX_FRAME_BYTES,
    ):
        if timeout_seconds <= 0 or connect_timeout_seconds <= 0:
            raise ValueError("timeouts must be positive")
        self.host = host
        self.port = port
        self.shim = shim
        self.timeout_seconds = timeout_seconds
        self.connect_timeout_seconds = connect_timeout_seconds
        #: Modeled client-side PUF read (0 by default: a deployment storm
        #: measures the serving path, not the client's USB bus).
        self.puf_read_seconds = puf_read_seconds
        self.max_frame_bytes = max_frame_bytes
        self._sock: socket.socket | None = None
        self._decoder: FrameDecoder | None = None
        self._lock = threading.Lock()
        self._epoch = time.monotonic()
        # -- InProcessTransport-compatible accounting --------------------
        self.messages_delivered = 0
        self.bytes_delivered = 0
        #: Frames actually sent/received over the socket (request() path).
        self.frames_sent = 0
        self.frames_received = 0
        self.reconnects = 0
        self._log: list[tuple[str, int, float]] = []

    # -- connection lifecycle -------------------------------------------

    def connect(self) -> None:
        """Establish the TCP connection now (otherwise lazy)."""
        with self._lock:
            self._ensure_connected()

    def _ensure_connected(self) -> socket.socket:
        if self._sock is not None:
            return self._sock
        try:
            sock = socket.create_connection(
                (self.host, self.port), timeout=self.connect_timeout_seconds
            )
        except OSError as exc:
            raise ConnectionLost(
                f"connect to {self.host}:{self.port} failed: {exc}"
            ) from exc
        sock.settimeout(self.timeout_seconds)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock = sock
        self._decoder = FrameDecoder(self.max_frame_bytes)
        self.reconnects += 1
        return sock

    def _drop_connection(self) -> None:
        sock, self._sock, self._decoder = self._sock, None, None
        if sock is not None:
            try:
                sock.close()
            except OSError:
                pass

    def close(self) -> None:
        """Tear the connection down (idempotent)."""
        with self._lock:
            self._drop_connection()

    def __enter__(self) -> "SocketTransport":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- framed request/response ----------------------------------------

    def request(self, label: str, payload: bytes) -> bytes:
        """Send one framed message; block for the peer's framed reply.

        The shim (if any) runs first: it may sleep out emulated latency,
        corrupt the payload (the server answers with a typed ``corrupt``
        refusal), or drop the frame entirely (raises ``MessageDropped``
        after the emulated wait — the frame never touches the socket,
        exactly like a loss on the path).
        """
        if self.shim is not None:
            payload = self.shim.apply(label, payload)
        started = time.monotonic()
        with self._lock:
            sock = self._ensure_connected()
            decoder = self._decoder
            assert decoder is not None
            try:
                sock.sendall(encode_frame(payload))
                self.frames_sent += 1
            except OSError as exc:
                self._drop_connection()
                raise ConnectionLost(f"send of {label!r} failed: {exc}") from exc
            while True:
                try:
                    chunk = sock.recv(_RECV_BYTES)
                except socket.timeout:
                    waited = time.monotonic() - started
                    self._drop_connection()
                    raise MessageDropped(label, waited) from None
                except OSError as exc:
                    self._drop_connection()
                    raise ConnectionLost(
                        f"recv for {label!r} failed: {exc}"
                    ) from exc
                if not chunk:
                    self._drop_connection()
                    raise ConnectionLost(
                        f"peer closed the connection awaiting {label!r}"
                    )
                try:
                    frames = decoder.feed(chunk)
                except MessageCorrupted:
                    # Framing lost sync; the connection is unusable.
                    self._drop_connection()
                    raise
                if frames:
                    if len(frames) > 1:
                        self._drop_connection()
                        raise MessageCorrupted(
                            f"{len(frames)} reply frames to one {label!r}"
                        )
                    self.frames_received += 1
                    self._log.append(
                        (label, len(frames[0]), time.monotonic() - started)
                    )
                    return frames[0]

    # -- InProcessTransport duck interface ------------------------------

    @property
    def elapsed_seconds(self) -> float:
        """Wall-clock seconds since this transport was created.

        The in-process transport's virtual clock becomes the real one:
        NetworkClient computes deadlines and retry budgets from
        *differences* of this value, which works unchanged.
        """
        return time.monotonic() - self._epoch

    def deliver(self, label: str, payload: bytes) -> bytes:
        """Accounting pass-through for NetworkClient's serialize legs.

        The real I/O happens in :meth:`request` (driven by the
        RemoteCAServer stub); this leg only counts the payload so the
        delivered-bytes telemetry matches the in-process transport's.
        """
        self.messages_delivered += 1
        self.bytes_delivered += len(payload)
        return payload

    def charge(self, label: str, seconds: float) -> None:
        """Really wait — backoff over a real link is wall-clock time."""
        if seconds < 0:
            raise ValueError("cannot charge negative time")
        if seconds:
            time.sleep(seconds)
        self._log.append((label, 0, seconds))

    def charge_puf_read(self) -> None:
        """Model the client's PUF read (really sleeps when configured)."""
        if self.puf_read_seconds:
            time.sleep(self.puf_read_seconds)
        self._log.append(("puf-read", 0, self.puf_read_seconds))

    @property
    def log(self) -> list[tuple[str, int, float]]:
        """(label, bytes, seconds) per request/charge on this transport."""
        return list(self._log)


def raise_error_reply(reply: ErrorReply) -> None:
    """Re-raise a refusal frame as its :class:`Refusal` member's exception;
    an ``error`` reply, or one no member goes out as, is a TransportError."""
    refusal = Refusal.on_wire(reply.kind, reply.reason)
    detail = reply.detail or reply.reason or reply.kind
    if refusal is None:
        raise TransportError(detail)
    if refusal.kind == "shed":
        raise RequestShed(refusal, reply.detail)
    if refusal.kind == "busy":
        raise ServerBusy(detail, refusal)
    if refusal.kind == "closed":
        raise ServerClosed(detail)
    raise MessageCorrupted(f"server rejected frame: {detail}")


def error_reply_for(exc: BaseException) -> ErrorReply:
    """The frame for one server-side failure: its refusal, or ``error``."""
    refusal = Refusal.of(exc)
    if refusal is None:
        return ErrorReply(kind="error", detail=f"{type(exc).__name__}: {exc}")
    return ErrorReply(kind=refusal.kind, reason=refusal.reason, detail=str(exc))


class RemoteCAServer:
    """Client-side stub: a CAServer-shaped object backed by a socket.

    ``NetworkClient.authenticate(remote)`` works unchanged — each
    protocol leg serializes, crosses the real wire, and is parsed on the
    other side; refusals come back as typed exceptions.
    """

    def __init__(self, transport: SocketTransport):
        self.transport = transport

    def _call(self, label: str, payload: bytes, expected):
        raw = self.transport.request(label, payload)
        kind = peek_frame_kind(raw)
        if kind == "error_reply":
            raise_error_reply(ErrorReply.from_bytes(raw))
        return expected.from_bytes(raw)

    def handle_handshake(self, request: HandshakeRequest) -> HandshakeResponse:
        """Figure 1 handshake over the wire."""
        return self._call(
            "handshake-request", request.to_bytes(), HandshakeResponse
        )

    def handle_digest(self, submission: DigestSubmission) -> AuthenticationResult:
        """Digest submission -> search -> result over the wire."""
        return self._call(
            "digest-submission", submission.to_bytes(), AuthenticationResult
        )

    def fetch_metrics(self, include_tenants: bool = False) -> MetricsSnapshot:
        """Scrape the server's ServerMetrics over the admin frame."""
        return self._call(
            "metrics-request",
            MetricsRequest(include_tenants=include_tenants).to_bytes(),
            MetricsSnapshot,
        )

    def enroll(self, client_id: str, probe: bool = False) -> EnrollReply:
        """(Re-)enroll a fleet identity; ``probe=True`` only asks the
        currently-held record version (the storm's loss detector)."""
        return self._call(
            "enroll-request",
            EnrollRequest(client_id=client_id, probe=probe).to_bytes(),
            EnrollReply,
        )


class SocketCAServer:
    """TCP front end: accept loop + per-connection frame dispatch.

    Wraps an object with ``handle_handshake`` / ``handle_digest`` — a
    :class:`~repro.net.concurrent.ConcurrentCAServer` (digest submissions
    join its admission-controlled queue) or the serial
    :class:`~repro.net.server.CAServer` — and closes it with itself.
    Every frame gets exactly one reply frame; every failure becomes a
    typed :class:`~repro.net.messages.ErrorReply` rather than a vanished
    connection, so remote clients see the same typed outcomes in-process
    callers get as exceptions.
    """

    def __init__(
        self,
        server,
        host: str = "127.0.0.1",
        port: int = 0,
        false_auth_counter: Callable[[], int] | None = None,
        enroll_handler: Callable[[EnrollRequest], EnrollReply] | None = None,
        extra_counters: Callable[[], dict] | None = None,
    ):
        self.server = server
        self.host = host
        self.port = port
        #: Optional callable reporting server-side false authentications
        #: (the chaos tripwire) for the admin metrics snapshot.
        self.false_auth_counter = false_auth_counter
        #: Optional hook serving ``enroll_request`` frames (the deploy
        #: server wires the deterministic-fleet enrollment path here);
        #: without one the frame is refused with a typed error.
        self.enroll_handler = enroll_handler
        #: Optional callable whose items are merged into the metrics
        #: frame's counters under a ``durable_`` prefix — how a live
        #: WAL's append/fsync/checkpoint telemetry rides the admin frame
        #: without ServerMetrics needing to know about the store.
        self.extra_counters = extra_counters
        self._listener: socket.socket | None = None
        self._accept_thread: threading.Thread | None = None
        self._connections: set[socket.socket] = set()
        self._threads: list[threading.Thread] = []
        self._lock = threading.Lock()
        self._closed = threading.Event()
        self.connections_accepted = 0
        self.frames_served = 0
        self.error_replies = 0

    # -- lifecycle -------------------------------------------------------

    def start(self) -> tuple[str, int]:
        """Bind, listen, and spawn the accept loop; returns (host, port).
        A started server only returns its address again."""
        if self._listener is not None:
            return self.host, self.port
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.host, self.port))
        listener.listen(128)
        # Bounded blocking so the accept loop can observe the close flag
        # even if no connection ever arrives.
        listener.settimeout(0.2)
        self._listener = listener
        self.host, self.port = listener.getsockname()
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="socket-ca-accept", daemon=True
        )
        self._accept_thread.start()
        return self.host, self.port

    def close(self, drain: bool = True) -> None:
        """Stop accepting, settle in-flight requests, cut connections.

        Signal-safe by construction: this only *sets* the closed event
        and then performs the teardown on the calling thread — a SIGTERM
        handler should set an event of its own and let the main thread
        call this (see ``repro.deploy.server``). ``drain=True`` lets
        in-flight searches finish (bounded by their time budgets);
        ``drain=False`` sheds them typed via the inner server.
        """
        if self._closed.is_set():
            return
        self._closed.set()
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=2.0)
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
        # Settle the serving layer first: in-flight submissions resolve
        # (drain) or shed typed (no drain), so connection threads can
        # still write their reply frames before the sockets go away.
        inner_close = getattr(self.server, "close", None)
        if inner_close is not None:
            inner_close(drain)
        with self._lock:
            connections = list(self._connections)
        deadline = time.monotonic() + (5.0 if drain else 1.0)
        for thread in list(self._threads):
            thread.join(timeout=max(0.0, deadline - time.monotonic()))
        for conn in connections:
            try:
                conn.close()
            except OSError:
                pass

    def __enter__(self) -> "SocketCAServer":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- accept / serve ---------------------------------------------------

    def _accept_loop(self) -> None:
        assert self._listener is not None
        while not self._closed.is_set():
            try:
                conn, _addr = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                break
            conn.settimeout(0.2)
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            with self._lock:
                self._connections.add(conn)
                self.connections_accepted += 1
                thread = threading.Thread(
                    target=self._serve_connection,
                    args=(conn,),
                    name=f"socket-ca-conn-{self.connections_accepted}",
                    daemon=True,
                )
                # close() joins the live threads only; a finished one
                # kept here would be one leaked object per connection.
                self._threads = [t for t in self._threads if t.is_alive()]
                self._threads.append(thread)
            thread.start()

    def _serve_connection(self, conn: socket.socket) -> None:
        decoder = FrameDecoder()
        try:
            while not self._closed.is_set():
                try:
                    chunk = conn.recv(_RECV_BYTES)
                except socket.timeout:
                    continue
                except OSError:
                    return
                if not chunk:
                    return
                try:
                    frames = decoder.feed(chunk)
                except MessageCorrupted as exc:
                    # Framing lost sync: one typed refusal, then cut the
                    # connection — nothing downstream is trustworthy.
                    self._send(conn, error_reply_for(exc).to_bytes())
                    return
                for raw in frames:
                    reply = self._serve_frame(raw)
                    if not self._send(conn, reply):
                        return
        finally:
            with self._lock:
                self._connections.discard(conn)
            try:
                conn.close()
            except OSError:
                pass

    def _send(self, conn: socket.socket, payload: bytes) -> bool:
        try:
            conn.sendall(encode_frame(payload))
            return True
        except OSError:
            return False

    def _serve_frame(self, raw: bytes) -> bytes:
        """One frame in, exactly one reply frame out (never raises)."""
        self.frames_served += 1
        try:
            kind = peek_frame_kind(raw)
            if kind == "handshake_request":
                request = HandshakeRequest.from_bytes(raw)
                return self.server.handle_handshake(request).to_bytes()
            if kind == "digest_submission":
                submission = DigestSubmission.from_bytes(raw)
                return self.server.handle_digest(submission).to_bytes()
            if kind == "enroll_request":
                enroll_request = EnrollRequest.from_bytes(raw)
                return self._enroll(enroll_request).to_bytes()
            if kind == "metrics_request":
                metrics_request = MetricsRequest.from_bytes(raw)
                return self._metrics(metrics_request).to_bytes()
            raise MessageCorrupted(f"unserveable frame type {kind!r}")
        except BaseException as exc:
            self.error_replies += 1
            return error_reply_for(exc).to_bytes()

    # -- frames the wrapped server does not speak -------------------------

    def _enroll(self, request: EnrollRequest) -> EnrollReply:
        if self.enroll_handler is None:
            raise TransportError(
                "this server does not accept enrollment frames"
            )
        return self.enroll_handler(request)

    def _metrics(self, request: MetricsRequest) -> MetricsSnapshot:
        metrics = getattr(self.server, "metrics", None)
        counters: dict[str, float] = (
            metrics.snapshot() if metrics is not None else {}
        )
        if self.extra_counters is not None:
            for key, value in self.extra_counters().items():
                counters[f"durable_{key}"] = float(value)
        if metrics is None:
            return MetricsSnapshot(counters=counters)
        false_auths = (
            self.false_auth_counter() if self.false_auth_counter else 0
        )
        return MetricsSnapshot(
            counters=counters,
            shed_reasons=metrics.shed_breakdown(),
            tenants=(
                metrics.tenant_snapshot() if request.include_tenants else {}
            ),
            false_authentications=false_auths,
        )
