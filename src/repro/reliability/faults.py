"""Deterministic fault planning.

One :class:`FaultPlan` is the single source of randomness for an entire
chaos run: every stochastic choice — which message drops, which byte of
which frame flips, when the simulated device fails, which cluster rank
dies — is drawn from a stream derived from the plan's one root seed via
``numpy.random.SeedSequence``. Two plans built from the same
:class:`FaultSpec` and seed therefore produce *identical* fault
schedules, which is what makes a chaos run a regression test instead of
a dice roll.

Streams are keyed, not spawned, so derivation is order-independent:
``transport_injector(7)`` returns the same injector whether or not
``transport_injector(3)`` was ever requested.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field, fields

import numpy as np

__all__ = [
    "FaultSpec",
    "FaultPlan",
    "MessageFaultInjector",
    "ScriptedFaultInjector",
    "DeviceFaultInjector",
    "ClusterFaultInjector",
    "ShardFaultInjector",
    "VirtualClock",
    "MESSAGE_FAULTS",
]

#: Message-level fault kinds, in the order the cumulative draw checks them.
MESSAGE_FAULTS = ("drop", "corrupt", "duplicate", "reorder", "latency-spike")

# Stream keys mixed into the root SeedSequence (never reuse a value).
_STREAM_TRANSPORT = 1
_STREAM_CLIENT = 2
_STREAM_DEVICE = 3
_STREAM_CLUSTER = 4
_STREAM_SHARD = 5


@dataclass(frozen=True)
class FaultSpec:
    """Declarative description of a failure environment.

    Message-fault rates are mutually exclusive per message (one uniform
    draw decides), so their sum must stay <= 1.
    """

    name: str = "custom"
    # -- link faults (per message) --------------------------------------
    drop_rate: float = 0.0
    corrupt_rate: float = 0.0
    duplicate_rate: float = 0.0
    reorder_rate: float = 0.0
    latency_spike_rate: float = 0.0
    latency_spike_seconds: float = 1.0
    # -- device faults (per search on the primary backend) --------------
    #: Number of failure episodes: contiguous windows of searches during
    #: which the device raises :class:`~repro.devices.flaky.DeviceFailure`.
    device_failure_episodes: int = 0
    device_failure_length: int = 6
    device_slow_rate: float = 0.0
    device_slow_factor: float = 4.0
    # -- cluster faults (per distributed search) ------------------------
    dead_rank_count: int = 0
    straggler_rate: float = 0.0
    straggler_factor: float = 3.0
    # -- directory-shard faults (per shard read/write) ------------------
    #: Probability a shard operation times out (transient; the directory
    #: retries with backoff before failing over to a replica).
    shard_timeout_rate: float = 0.0
    #: Probability a shard operation is slow-but-successful.
    shard_slow_rate: float = 0.0
    shard_slow_seconds: float = 0.05

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name.endswith("_rate") and not 0.0 <= value <= 1.0:
                raise ValueError(f"{f.name} must be in [0, 1], got {value}")
        if self.message_fault_rate > 1.0:
            raise ValueError("message fault rates must sum to at most 1")
        if self.device_failure_length < 1:
            raise ValueError("device_failure_length must be positive")
        if self.straggler_factor < 1.0:
            raise ValueError("straggler_factor must be >= 1")

    @property
    def message_fault_rate(self) -> float:
        """Total probability that any given message is faulted."""
        return (
            self.drop_rate
            + self.corrupt_rate
            + self.duplicate_rate
            + self.reorder_rate
            + self.latency_spike_rate
        )


class VirtualClock:
    """A monotonically advancing clock the chaos harness drives.

    The circuit breaker's recovery timer reads it, so breaker state
    transitions happen in *virtual* storm time and stay deterministic.
    """

    def __init__(self, start: float = 0.0):
        self._now = float(start)
        self._lock = threading.Lock()

    def now(self) -> float:
        """Current virtual time in seconds."""
        with self._lock:
            return self._now

    def advance(self, seconds: float) -> None:
        """Move virtual time forward (never backward)."""
        if seconds < 0:
            raise ValueError("virtual time cannot go backward")
        with self._lock:
            self._now += seconds


class MessageFaultInjector:
    """Per-link fault stream: decides one fault kind (or none) per message."""

    def __init__(self, spec: FaultSpec, rng: np.random.Generator):
        self.spec = spec
        self._rng = rng
        self._lock = threading.Lock()
        #: (message_index, label, fault_kind) for every faulted message.
        self.schedule: list[tuple[int, str, str]] = []
        self.messages_seen = 0

    def next(self, label: str) -> str | None:
        """The fault (if any) to apply to the next message."""
        with self._lock:
            index = self.messages_seen
            self.messages_seen += 1
            draw = self._rng.random()
            threshold = 0.0
            for kind, rate in zip(
                MESSAGE_FAULTS,
                (
                    self.spec.drop_rate,
                    self.spec.corrupt_rate,
                    self.spec.duplicate_rate,
                    self.spec.reorder_rate,
                    self.spec.latency_spike_rate,
                ),
            ):
                threshold += rate
                if draw < threshold:
                    self.schedule.append((index, label, kind))
                    return kind
            return None

    def corrupt(self, payload: bytes) -> bytes:
        """Flip one deterministic-but-random bit of the payload."""
        if not payload:
            return payload
        with self._lock:
            position = int(self._rng.integers(len(payload)))
            bit = 1 << int(self._rng.integers(8))
        corrupted = bytearray(payload)
        corrupted[position] ^= bit
        return bytes(corrupted)


class ScriptedFaultInjector:
    """Test double: replays an explicit fault script instead of drawing.

    ``script`` is a sequence of fault kinds (or ``None``); once it is
    exhausted every further message is clean.
    """

    def __init__(self, script):
        self.spec = FaultSpec(name="scripted")
        self._script = list(script)
        self.schedule: list[tuple[int, str, str]] = []
        self.messages_seen = 0

    def next(self, label: str) -> str | None:
        index = self.messages_seen
        self.messages_seen += 1
        kind = self._script[index] if index < len(self._script) else None
        if kind is not None:
            self.schedule.append((index, label, kind))
        return kind

    def corrupt(self, payload: bytes) -> bytes:
        corrupted = bytearray(payload)
        corrupted[0] ^= 0x01
        return bytes(corrupted)


class DeviceFaultInjector:
    """Per-search fault stream for a simulated device backend.

    Failure *episodes* are contiguous windows of the device's search
    counter — a sick accelerator stays sick for a while, which is what
    exercises the circuit breaker's open -> half-open -> closed cycle
    (each half-open probe that lands inside the episode re-opens it).
    """

    def __init__(self, spec: FaultSpec, rng: np.random.Generator, horizon: int = 200):
        if horizon < 1:
            raise ValueError("horizon must be positive")
        self.spec = spec
        self._rng = rng
        self._lock = threading.Lock()
        self.calls = 0
        self.episodes: tuple[tuple[int, int], ...] = tuple(
            sorted(
                (start, start + spec.device_failure_length)
                for start in (
                    int(rng.integers(low=2, high=max(3, horizon // 2)))
                    for _ in range(spec.device_failure_episodes)
                )
            )
        )

    def next(self) -> str | None:
        """Fault for the next search: 'fail', 'slow', or None."""
        with self._lock:
            index = self.calls
            self.calls += 1
            if any(lo <= index < hi for lo, hi in self.episodes):
                return "fail"
            if self.spec.device_slow_rate and self._rng.random() < self.spec.device_slow_rate:
                return "slow"
            return None


class ShardFaultInjector:
    """Per-operation fault stream for one enrollment-directory shard.

    Each read/write against the shard draws once: ``"timeout"`` (the
    operation fails with a retryable timeout), ``"slow"`` (it succeeds
    after a modeled delay), or ``None`` (clean). Keyed per shard index,
    so shard 3's schedule is independent of whether shard 1 was ever
    consulted.
    """

    def __init__(self, spec: FaultSpec, rng: np.random.Generator):
        self.spec = spec
        self._rng = rng
        self._lock = threading.Lock()
        self.operations_seen = 0
        #: (operation_index, fault_kind) for every faulted operation.
        self.schedule: list[tuple[int, str]] = []

    def next(self) -> str | None:
        """The fault (if any) to apply to the next shard operation."""
        with self._lock:
            index = self.operations_seen
            self.operations_seen += 1
            draw = self._rng.random()
            threshold = self.spec.shard_timeout_rate
            if draw < threshold:
                self.schedule.append((index, "timeout"))
                return "timeout"
            threshold += self.spec.shard_slow_rate
            if draw < threshold:
                self.schedule.append((index, "slow"))
                return "slow"
            return None


class ClusterFaultInjector:
    """Rank-level faults for one distributed search: deaths and stragglers."""

    def __init__(self, spec: FaultSpec, rng: np.random.Generator, ranks: int):
        if ranks < 1:
            raise ValueError("ranks must be positive")
        # Never kill the whole cluster — recovery needs a survivor.
        dead_count = min(spec.dead_rank_count, ranks - 1)
        dead = rng.choice(ranks, size=dead_count, replace=False) if dead_count else []
        self.dead_ranks: frozenset[int] = frozenset(int(r) for r in dead)
        self._factors = {
            rank: float(spec.straggler_factor)
            for rank in range(ranks)
            if rank not in self.dead_ranks
            and spec.straggler_rate
            and rng.random() < spec.straggler_rate
        }

    @property
    def straggler_ranks(self) -> tuple[int, ...]:
        """Ranks that run but at a slowdown factor."""
        return tuple(sorted(self._factors))

    def straggle_factor(self, rank: int) -> float:
        """Wall-time multiplier for one rank (1.0 if healthy)."""
        return self._factors.get(rank, 1.0)


class FaultPlan:
    """All fault streams for one chaos run, derived from one root seed."""

    def __init__(self, spec: FaultSpec, seed: int):
        if seed < 0:
            raise ValueError("seed must be non-negative")
        self.spec = spec
        self.seed = int(seed)

    def _rng(self, *key: int) -> np.random.Generator:
        return np.random.default_rng(
            np.random.SeedSequence((self.seed, *key))
        )

    def transport_injector(self, index: int) -> MessageFaultInjector:
        """The message-fault stream for client ``index``'s link."""
        return MessageFaultInjector(self.spec, self._rng(_STREAM_TRANSPORT, index))

    def client_rng(self, index: int) -> np.random.Generator:
        """Client-side randomness (retry jitter) for client ``index``."""
        return self._rng(_STREAM_CLIENT, index)

    def device_injector(self, horizon: int = 200) -> DeviceFaultInjector:
        """The device-fault stream for the primary search backend."""
        return DeviceFaultInjector(self.spec, self._rng(_STREAM_DEVICE), horizon)

    def cluster_injector(self, ranks: int) -> ClusterFaultInjector:
        """Rank death/straggler assignment for a ``ranks``-node search."""
        return ClusterFaultInjector(self.spec, self._rng(_STREAM_CLUSTER), ranks)

    def shard_injector(self, index: int) -> ShardFaultInjector:
        """The operation-fault stream for enrollment-directory shard ``index``."""
        return ShardFaultInjector(self.spec, self._rng(_STREAM_SHARD, index))
