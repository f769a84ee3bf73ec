"""Fault injection and resilience for the RBC serving stack.

Two halves, by design:

* **producing failure** — :class:`FaultSpec` / :class:`FaultPlan` derive
  every stochastic fault choice (message drops, corrupted frames, device
  failure episodes, dead cluster ranks) from one root seed;
  :class:`FaultyTransport` applies the message stream to a link.
* **consuming failure** — :class:`RetryPolicy` bounds the client's
  restart behaviour and :class:`CircuitBreaker` is the per-device (and
  per-shard) health state machine. What survives a device going away is
  the fleet dispatcher (:mod:`repro.fleet.dispatcher`): a device whose
  breaker opens is quarantined, its work re-dispatched to the
  survivors, and a passing probe reinstates it.

The chaos harness that wires both halves together lives in
:mod:`repro.reliability.chaos` (imported explicitly — it pulls in the
full serving stack).
"""

from repro.reliability.faults import (
    FaultSpec,
    FaultPlan,
    MessageFaultInjector,
    ScriptedFaultInjector,
    DeviceFaultInjector,
    ClusterFaultInjector,
    ShardFaultInjector,
    VirtualClock,
    MESSAGE_FAULTS,
)
from repro.reliability.retry import (
    RetryPolicy,
    RetryError,
    DeadlineExceeded,
    RetriesExhausted,
)
from repro.reliability.breaker import BreakerState, CircuitBreaker, CircuitOpenError
from repro.reliability.transport import FaultyTransport

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
    "RetryPolicy",
    "RetryError",
    "DeadlineExceeded",
    "RetriesExhausted",
    "BreakerState",
    "CircuitBreaker",
    "CircuitOpenError",
    "FaultyTransport",
]
