"""Protocol messages (Figure 1 wire format).

Values are plain dataclasses with byte-level serialization so the
transport can charge for realistic payload sizes. Nothing secret crosses
the wire: the handshake carries cell addresses and the public ternary
mask, the submission carries the digest ``M₁`` (useless without the PUF
image), and the result carries the public key.

Every frame carries a CRC-32 over its canonical body, and every message
type has a ``from_bytes`` parser that verifies it. A frame that was
corrupted in flight therefore fails *loudly* as
:class:`~repro.net.errors.MessageCorrupted` instead of silently feeding
garbage into the search — the property the fault-injection suite leans
on. (The CRC detects accidents, not attackers; authenticity is the
session layer's job, see :mod:`repro.net.session`.)
"""

from __future__ import annotations

import json
import struct
import zlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.net.errors import FrameTooLarge, MessageCorrupted
from repro.tenancy.context import DEFAULT_TENANT

if TYPE_CHECKING:
    from repro.core.authentication import Challenge

__all__ = [
    "HandshakeRequest",
    "HandshakeResponse",
    "DigestSubmission",
    "AuthenticationResult",
    "EnrollRequest",
    "EnrollReply",
    "MetricsRequest",
    "MetricsSnapshot",
    "ErrorReply",
    "MAX_FRAME_BYTES",
    "FRAME_HEADER_BYTES",
    "encode_frame",
    "FrameDecoder",
    "peek_frame_kind",
    "MESSAGE_TYPES",
]

#: Upper bound on one wire frame's body. The largest legitimate frame is
#: a handshake response carrying a packed cell mask (a few KiB at the
#: paper's window sizes); a megabyte leaves two orders of magnitude of
#: headroom while keeping a corrupt/hostile length prefix from turning
#: into a giant allocation.
MAX_FRAME_BYTES = 1 << 20

#: Big-endian u32 length prefix in front of every socket frame.
_FRAME_HEADER = struct.Struct(">I")
FRAME_HEADER_BYTES = _FRAME_HEADER.size


def encode_frame(payload: bytes) -> bytes:
    """Length-prefix one message body for the socket wire.

    The in-process transport hands whole payloads around, so it never
    needed framing; TCP delivers an undifferentiated byte stream, so
    every message is prefixed with its length and reassembled by
    :class:`FrameDecoder` on the far side.
    """
    if not payload:
        raise ValueError("cannot frame an empty payload")
    if len(payload) > MAX_FRAME_BYTES:
        raise FrameTooLarge(len(payload), MAX_FRAME_BYTES)
    return _FRAME_HEADER.pack(len(payload)) + payload


class FrameDecoder:
    """Incremental reassembly of length-prefixed frames off a stream.

    Feed it whatever ``recv`` returned — single bytes, torn length
    prefixes, several frames glued together — and it yields exactly the
    frame bodies the sender framed, in order. The length prefix is
    validated *before* the body is buffered, so a corrupt prefix raises
    :class:`~repro.net.errors.FrameTooLarge` (or
    :class:`~repro.net.errors.MessageCorrupted` for a zero length)
    instead of committing memory to garbage. Once poisoned, a decoder
    refuses further input: the stream has lost sync and the connection
    must be torn down.
    """

    def __init__(self, max_frame_bytes: int = MAX_FRAME_BYTES):
        if max_frame_bytes < 1:
            raise ValueError("max_frame_bytes must be positive")
        self.max_frame_bytes = max_frame_bytes
        self._buffer = bytearray()
        self._expected: int | None = None
        self._poisoned = False
        self.frames_decoded = 0

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered toward an incomplete frame."""
        return len(self._buffer)

    def feed(self, data: bytes) -> list[bytes]:
        """Absorb one chunk; return every frame it completed."""
        if self._poisoned:
            raise MessageCorrupted(
                "frame stream already failed validation; reconnect"
            )
        self._buffer.extend(data)
        frames: list[bytes] = []
        while True:
            if self._expected is None:
                if len(self._buffer) < FRAME_HEADER_BYTES:
                    break
                (length,) = _FRAME_HEADER.unpack_from(self._buffer)
                if length == 0:
                    self._poisoned = True
                    raise MessageCorrupted("zero-length frame prefix")
                if length > self.max_frame_bytes:
                    self._poisoned = True
                    raise FrameTooLarge(length, self.max_frame_bytes)
                del self._buffer[:FRAME_HEADER_BYTES]
                self._expected = length
            if len(self._buffer) < self._expected:
                break
            frames.append(bytes(self._buffer[: self._expected]))
            del self._buffer[: self._expected]
            self._expected = None
            self.frames_decoded += 1
        return frames


def peek_frame_kind(raw: bytes) -> str:
    """The ``type`` tag of one frame body, without full validation.

    The socket server uses this to route a frame to the right parser;
    the parser then performs the real CRC + structure check.
    """
    try:
        body = json.loads(raw.decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise MessageCorrupted(f"unparseable frame: {exc}") from exc
    if not isinstance(body, dict) or not isinstance(body.get("type"), str):
        raise MessageCorrupted("frame carries no type tag")
    return body["type"]


def _encode(kind: str, payload: dict) -> bytes:
    """Serialize a message body plus a CRC-32 over its canonical form.

    The CRC is fixed-width hex so the frame length never varies with the
    checksum's value — frame length feeds the transport's virtual clock,
    which must be a pure function of the message *fields*.
    """
    body = dict(payload)
    body["type"] = kind
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    body["crc"] = f"{zlib.crc32(canonical.encode()):08x}"
    return json.dumps(body, sort_keys=True, separators=(",", ":")).encode()


def _decode(raw: bytes, kind: str) -> dict:
    """Parse and integrity-check one frame; raises MessageCorrupted."""
    try:
        body = json.loads(raw.decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise MessageCorrupted(f"unparseable {kind} frame: {exc}") from exc
    if not isinstance(body, dict):
        raise MessageCorrupted(f"{kind} frame is not an object")
    crc = body.pop("crc", None)
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    if crc != f"{zlib.crc32(canonical.encode()):08x}":
        raise MessageCorrupted(f"{kind} frame failed its CRC check")
    if body.get("type") != kind:
        raise MessageCorrupted(
            f"expected a {kind} frame, got {body.get('type')!r}"
        )
    return body


@dataclass(frozen=True)
class HandshakeRequest:
    """Client -> CA: 'I want to authenticate'.

    ``tenant`` names the namespace the client enrolled under. It is
    *omitted* from the frame for the default tenant, so untenanted
    clients emit byte-identical frames to the pre-tenancy protocol, and
    pre-tenancy parsers (which read only known keys) interoperate with
    tenanted peers in both directions.
    """

    client_id: str
    tenant: str = DEFAULT_TENANT

    def to_bytes(self) -> bytes:
        """Serialize the message for the wire."""
        payload: dict = {"client_id": self.client_id}
        if self.tenant != DEFAULT_TENANT:
            payload["tenant"] = self.tenant
        return _encode("handshake_request", payload)

    @classmethod
    def from_bytes(cls, raw: bytes) -> "HandshakeRequest":
        """Parse and integrity-check a wire frame."""
        body = _decode(raw, "handshake_request")
        try:
            return cls(
                client_id=body["client_id"],
                tenant=body.get("tenant") or DEFAULT_TENANT,
            )
        except KeyError as exc:
            raise MessageCorrupted(f"handshake_request missing {exc}") from exc


@dataclass(frozen=True)
class HandshakeResponse:
    """CA -> client: PUF address information (Figure 1 handshake)."""

    client_id: str
    address: int
    window: int
    usable_mask: bytes  # packed boolean mask over the window
    bit_count: int
    hash_name: str

    @classmethod
    def from_challenge(cls, challenge: Challenge) -> "HandshakeResponse":
        """The wire form of the authority's challenge (usable mask packed)."""
        return cls(
            client_id=challenge.client_id,
            address=challenge.address,
            window=challenge.window,
            usable_mask=cls.pack_usable(challenge.usable),
            bit_count=challenge.bit_count,
            hash_name=challenge.hash_name,
        )

    def to_bytes(self) -> bytes:
        """Serialize the message for the wire."""
        return _encode(
            "handshake_response",
            {
                "client_id": self.client_id,
                "address": self.address,
                "window": self.window,
                "usable_mask": self.usable_mask.hex(),
                "bit_count": self.bit_count,
                "hash_name": self.hash_name,
            },
        )

    @classmethod
    def from_bytes(cls, raw: bytes) -> "HandshakeResponse":
        """Parse and integrity-check a wire frame."""
        body = _decode(raw, "handshake_response")
        try:
            return cls(
                client_id=body["client_id"],
                address=int(body["address"]),
                window=int(body["window"]),
                usable_mask=bytes.fromhex(body["usable_mask"]),
                bit_count=int(body["bit_count"]),
                hash_name=body["hash_name"],
            )
        except (KeyError, ValueError, TypeError) as exc:
            raise MessageCorrupted(f"malformed handshake_response: {exc}") from exc

    def unpack_usable(self) -> np.ndarray:
        """The boolean cell mask for the challenge window."""
        bits = np.unpackbits(np.frombuffer(self.usable_mask, dtype=np.uint8))
        return bits[: self.window].astype(bool)

    @staticmethod
    def pack_usable(usable: np.ndarray) -> bytes:
        """Pack a boolean cell mask into bytes for the wire."""
        return np.packbits(usable.astype(np.uint8)).tobytes()


@dataclass(frozen=True)
class DigestSubmission:
    """Client -> CA: the message digest M1 of the PUF-derived seed.

    ``deadline_seconds`` is the client's own time-to-useful-answer: how
    long the answer is worth waiting for, measured from CA admission. It
    rides along as protocol metadata — a deadline-aware CA routes the
    request into its express lane and may shed it; a plain CA clamps the
    search budget to ``min(T, deadline)``. ``None`` (the default, and
    what parsers infer from frames predating the field) means "protocol
    threshold only".

    ``tenant`` follows the same compatibility rule as
    :class:`HandshakeRequest`: omitted on the wire for the default
    tenant, inferred as default from frames predating the field.
    """

    client_id: str
    digest: bytes
    deadline_seconds: float | None = None
    tenant: str = DEFAULT_TENANT

    def to_bytes(self) -> bytes:
        """Serialize the message for the wire."""
        payload: dict = {
            "client_id": self.client_id,
            "digest": self.digest.hex(),
            # Fixed-width for the same reason as search_seconds below:
            # frame length must not depend on the deadline's digits.
            "deadline": (
                f"{self.deadline_seconds:018.6f}"
                if self.deadline_seconds is not None
                else None
            ),
        }
        if self.tenant != DEFAULT_TENANT:
            payload["tenant"] = self.tenant
        return _encode("digest_submission", payload)

    @classmethod
    def from_bytes(cls, raw: bytes) -> "DigestSubmission":
        """Parse and integrity-check a wire frame."""
        body = _decode(raw, "digest_submission")
        try:
            deadline = body.get("deadline")
            return cls(
                client_id=body["client_id"],
                digest=bytes.fromhex(body["digest"]),
                deadline_seconds=(
                    float(deadline) if deadline is not None else None
                ),
                tenant=body.get("tenant") or DEFAULT_TENANT,
            )
        except (KeyError, ValueError, TypeError) as exc:
            raise MessageCorrupted(f"malformed digest_submission: {exc}") from exc


@dataclass(frozen=True)
class AuthenticationResult:
    """CA -> client: outcome plus the registered public key."""

    client_id: str
    authenticated: bool
    distance: int | None
    public_key: bytes | None
    search_seconds: float
    timed_out: bool

    def to_bytes(self) -> bytes:
        """Serialize the message for the wire."""
        return _encode(
            "authentication_result",
            {
                "client_id": self.client_id,
                "authenticated": self.authenticated,
                "distance": self.distance,
                "public_key": self.public_key.hex() if self.public_key else None,
                # Fixed-width so the frame length (and therefore the
                # virtual transfer cost) never depends on how many digits
                # a wall-clock measurement happened to produce.
                "search_seconds": f"{self.search_seconds:018.6f}",
                "timed_out": self.timed_out,
            },
        )

    @classmethod
    def from_bytes(cls, raw: bytes) -> "AuthenticationResult":
        """Parse and integrity-check a wire frame."""
        body = _decode(raw, "authentication_result")
        try:
            key = body["public_key"]
            return cls(
                client_id=body["client_id"],
                authenticated=bool(body["authenticated"]),
                distance=body["distance"],
                public_key=bytes.fromhex(key) if key else None,
                search_seconds=float(body["search_seconds"]),
                timed_out=bool(body["timed_out"]),
            )
        except (KeyError, ValueError, TypeError) as exc:
            raise MessageCorrupted(f"malformed authentication_result: {exc}") from exc


@dataclass(frozen=True)
class EnrollRequest:
    """Client -> CA: (re-)enroll one deterministic fleet identity.

    Nothing secret crosses the wire: the frame names a fleet slot and
    the server reconstructs the PUF image from the deterministic fleet
    contract (:func:`~repro.deploy.enrollment.build_fleet_record`), then
    acknowledges only once the record is durable under its WAL policy.
    ``probe=True`` asks for the currently-held record version without
    enrolling — the crash storm's loss detector. Both optional fields
    follow the omitted-field compatibility rule.
    """

    client_id: str
    tenant: str = DEFAULT_TENANT
    probe: bool = False

    def to_bytes(self) -> bytes:
        """Serialize the message for the wire."""
        payload: dict = {"client_id": self.client_id}
        if self.tenant != DEFAULT_TENANT:
            payload["tenant"] = self.tenant
        if self.probe:
            payload["probe"] = True
        return _encode("enroll_request", payload)

    @classmethod
    def from_bytes(cls, raw: bytes) -> "EnrollRequest":
        """Parse and integrity-check a wire frame."""
        body = _decode(raw, "enroll_request")
        try:
            return cls(
                client_id=body["client_id"],
                tenant=body.get("tenant") or DEFAULT_TENANT,
                probe=bool(body.get("probe", False)),
            )
        except KeyError as exc:
            raise MessageCorrupted(f"enroll_request missing {exc}") from exc


@dataclass(frozen=True)
class EnrollReply:
    """CA -> client: the enrollment acknowledgement.

    ``version`` is the record version the server now holds durably
    (``-1``: not enrolled — only possible for a probe). An enrollment
    reply is the durability contract's observable half: once a client
    has seen it, the record must survive ``kill -9``.
    """

    client_id: str
    version: int
    enrolled: bool

    def to_bytes(self) -> bytes:
        """Serialize the message for the wire."""
        return _encode(
            "enroll_reply",
            {
                "client_id": self.client_id,
                "version": self.version,
                "enrolled": self.enrolled,
            },
        )

    @classmethod
    def from_bytes(cls, raw: bytes) -> "EnrollReply":
        """Parse and integrity-check a wire frame."""
        body = _decode(raw, "enroll_reply")
        try:
            return cls(
                client_id=body["client_id"],
                version=int(body["version"]),
                enrolled=bool(body["enrolled"]),
            )
        except (KeyError, ValueError, TypeError) as exc:
            raise MessageCorrupted(f"malformed enroll_reply: {exc}") from exc


@dataclass(frozen=True)
class MetricsRequest:
    """Admin -> CA: scrape a :class:`ServerMetrics` snapshot.

    ``include_tenants`` follows the omitted-field rule (PR 7's tenant
    field): ``False`` — the default — is left off the wire, so the
    minimal request frame is a stable byte sequence.
    """

    include_tenants: bool = False

    def to_bytes(self) -> bytes:
        """Serialize the message for the wire."""
        payload: dict = {}
        if self.include_tenants:
            payload["include_tenants"] = True
        return _encode("metrics_request", payload)

    @classmethod
    def from_bytes(cls, raw: bytes) -> "MetricsRequest":
        """Parse and integrity-check a wire frame."""
        body = _decode(raw, "metrics_request")
        return cls(include_tenants=bool(body.get("include_tenants", False)))


@dataclass(frozen=True)
class MetricsSnapshot:
    """CA -> admin: one consistent copy of the server's counters.

    ``counters`` mirrors ``ServerMetrics.snapshot()``; ``shed_reasons``
    mirrors ``shed_breakdown()``. The optional fields — ``shed_reasons``,
    ``tenants``, ``false_authentications`` — are *omitted* from the frame
    when empty/zero, so a snapshot from a server predating a counter is
    byte-identical to one that merely has nothing to report (the same
    forward-compatibility contract the tenant field established).
    """

    counters: dict[str, float]
    shed_reasons: dict[str, int] = field(default_factory=dict)
    tenants: dict[str, dict[str, float]] = field(default_factory=dict)
    false_authentications: int = 0

    def to_bytes(self) -> bytes:
        """Serialize the message for the wire."""
        payload: dict = {"counters": dict(self.counters)}
        if self.shed_reasons:
            payload["shed_reasons"] = dict(self.shed_reasons)
        if self.tenants:
            payload["tenants"] = {
                tenant: dict(stats) for tenant, stats in self.tenants.items()
            }
        if self.false_authentications:
            payload["false_authentications"] = self.false_authentications
        return _encode("metrics_snapshot", payload)

    @classmethod
    def from_bytes(cls, raw: bytes) -> "MetricsSnapshot":
        """Parse and integrity-check a wire frame."""
        body = _decode(raw, "metrics_snapshot")
        try:
            counters = body["counters"]
            if not isinstance(counters, dict):
                raise TypeError("counters must be an object")
            return cls(
                counters={k: float(v) for k, v in counters.items()},
                shed_reasons={
                    k: int(v)
                    for k, v in body.get("shed_reasons", {}).items()
                },
                tenants={
                    tenant: {k: float(v) for k, v in stats.items()}
                    for tenant, stats in body.get("tenants", {}).items()
                },
                false_authentications=int(
                    body.get("false_authentications", 0)
                ),
            )
        except (KeyError, ValueError, TypeError, AttributeError) as exc:
            raise MessageCorrupted(f"malformed metrics_snapshot: {exc}") from exc


#: ErrorReply kinds the socket server can send, and what the client-side
#: stub raises for each (see ``repro.net.sockets``).
ERROR_REPLY_KINDS = ("busy", "closed", "shed", "corrupt", "error")


@dataclass(frozen=True)
class ErrorReply:
    """CA -> client: a typed refusal instead of a result frame.

    The in-process stack raises typed exceptions across a function call;
    a remote server has only bytes, so the refusal rides the wire as its
    own frame: ``kind`` and ``reason`` are its
    :class:`~repro.refusals.Refusal` member's, and the client-side stub
    re-raises that member's exception. ``error`` is anything that is no
    refusal, re-raised as a TransportError.
    """

    kind: str
    reason: str = ""
    detail: str = ""

    def __post_init__(self):
        if self.kind not in ERROR_REPLY_KINDS:
            raise ValueError(
                f"kind must be one of {ERROR_REPLY_KINDS}, got {self.kind!r}"
            )

    def to_bytes(self) -> bytes:
        """Serialize the message for the wire."""
        payload: dict = {"kind": self.kind}
        if self.reason:
            payload["reason"] = self.reason
        if self.detail:
            payload["detail"] = self.detail
        return _encode("error_reply", payload)

    @classmethod
    def from_bytes(cls, raw: bytes) -> "ErrorReply":
        """Parse and integrity-check a wire frame."""
        body = _decode(raw, "error_reply")
        try:
            return cls(
                kind=body["kind"],
                reason=body.get("reason", ""),
                detail=body.get("detail", ""),
            )
        except (KeyError, ValueError, TypeError) as exc:
            raise MessageCorrupted(f"malformed error_reply: {exc}") from exc


#: Wire type tag -> parser, for frame routing off a socket.
MESSAGE_TYPES = {
    "handshake_request": HandshakeRequest,
    "handshake_response": HandshakeResponse,
    "digest_submission": DigestSubmission,
    "authentication_result": AuthenticationResult,
    "enroll_request": EnrollRequest,
    "enroll_reply": EnrollReply,
    "metrics_request": MetricsRequest,
    "metrics_snapshot": MetricsSnapshot,
    "error_reply": ErrorReply,
}
