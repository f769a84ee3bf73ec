"""Circuit breaker guarding a search backend.

Standard three-state machine:

* **closed** — requests flow; ``failure_threshold`` *consecutive*
  failures trip it open.
* **open** — requests are refused instantly (:class:`CircuitOpenError`)
  until ``recovery_seconds`` of clock time pass.
* **half-open** — a limited number of probe requests are admitted; one
  success closes the breaker, one failure re-opens it.

The clock is injectable so the chaos harness can run the breaker on the
storm's *virtual* clock — state transitions then happen in deterministic
virtual time and the transition history itself becomes a reproducible,
assertable artifact.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, TypeVar

__all__ = ["BreakerState", "CircuitOpenError", "CircuitBreaker"]

T = TypeVar("T")


class BreakerState:
    """The three breaker states (plain strings, handy in reports)."""

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"


class CircuitOpenError(RuntimeError):
    """Refused without trying: the breaker is open."""

    def __init__(self, retry_at: float):
        super().__init__(f"circuit open; retry after t={retry_at:.2f}s")
        self.retry_at = retry_at


class CircuitBreaker:
    """Thread-safe consecutive-failure circuit breaker."""

    def __init__(
        self,
        failure_threshold: int = 5,
        recovery_seconds: float = 30.0,
        half_open_probes: int = 1,
        clock: Callable[[], float] = time.monotonic,
    ):
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be positive")
        if recovery_seconds < 0:
            raise ValueError("recovery_seconds must be non-negative")
        if half_open_probes < 1:
            raise ValueError("half_open_probes must be positive")
        self.failure_threshold = failure_threshold
        self.recovery_seconds = recovery_seconds
        self.half_open_probes = half_open_probes
        self._clock = clock
        self._lock = threading.Lock()
        self._state = BreakerState.CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._probes_in_flight = 0
        #: (from_state, to_state, at_seconds), in order.
        self.transitions: list[tuple[str, str, float]] = []
        self.calls_allowed = 0
        self.calls_refused = 0
        self.failures_recorded = 0
        self.successes_recorded = 0

    # -- state ----------------------------------------------------------

    @property
    def state(self) -> str:
        """Current state, refreshing an expired open interval first."""
        with self._lock:
            self._maybe_half_open()
            return self._state

    def _transition(self, to_state: str) -> None:
        self.transitions.append((self._state, to_state, self._clock()))
        self._state = to_state

    def _maybe_half_open(self) -> None:
        if (
            self._state == BreakerState.OPEN
            and self._clock() - self._opened_at >= self.recovery_seconds
        ):
            self._transition(BreakerState.HALF_OPEN)
            self._probes_in_flight = 0

    def transition_names(self) -> tuple[str, ...]:
        """The transition history as 'from->to' strings, as of now: an
        expired open interval counts whether or not anyone has looked at
        :attr:`state` since."""
        with self._lock:
            self._maybe_half_open()
            return tuple(f"{a}->{b}" for a, b, _at in self.transitions)

    # -- request gating --------------------------------------------------

    def allow_request(self) -> bool:
        """Whether a request may proceed right now (counts half-open probes)."""
        with self._lock:
            self._maybe_half_open()
            if self._state == BreakerState.CLOSED:
                self.calls_allowed += 1
                return True
            if self._state == BreakerState.HALF_OPEN:
                if self._probes_in_flight < self.half_open_probes:
                    self._probes_in_flight += 1
                    self.calls_allowed += 1
                    return True
                self.calls_refused += 1
                return False
            self.calls_refused += 1
            return False

    def record_success(self) -> None:
        """Report a successful backend call."""
        with self._lock:
            self.successes_recorded += 1
            self._consecutive_failures = 0
            if self._state == BreakerState.HALF_OPEN:
                self._transition(BreakerState.CLOSED)
                self._probes_in_flight = 0

    def record_failure(self) -> None:
        """Report a failed backend call."""
        with self._lock:
            self.failures_recorded += 1
            self._consecutive_failures += 1
            if self._state == BreakerState.HALF_OPEN:
                self._transition(BreakerState.OPEN)
                self._opened_at = self._clock()
                self._probes_in_flight = 0
            elif (
                self._state == BreakerState.CLOSED
                and self._consecutive_failures >= self.failure_threshold
            ):
                self._transition(BreakerState.OPEN)
                self._opened_at = self._clock()

    def call(self, fn: Callable[[], T]) -> T:
        """Run ``fn`` through the breaker, recording the outcome."""
        if not self.allow_request():
            raise CircuitOpenError(self._opened_at + self.recovery_seconds)
        try:
            result = fn()
        except Exception:
            self.record_failure()
            raise
        self.record_success()
        return result
