"""One fleet member: a device slot with health, faults, and accounting.

A :class:`FleetDevice` bundles everything the dispatcher needs to know
about one modeled accelerator:

* its own :class:`~repro.fleet.batcher.ContinuousBatcher` (the kernel
  path — per-device so batch counters and fairness state stay local),
  which splits wide batches over the engine's one
  :class:`~repro.fleet.batcher.WorkerSet` when it was given it;
* an optional :class:`~repro.devices.base.DeviceModel` whose fault
  injector (if any) schedules failures and slowdowns per batch;
* a per-device :class:`~repro.reliability.breaker.CircuitBreaker` that
  turns consecutive failures into quarantine (open), probation
  (half-open), and reinstatement (closed) — the same machine the
  enrollment directory keeps per shard;
* a ``kill()`` / ``revive()`` switch the chaos harness flips mid-run.

The kill switch is checked *twice* per batch — before the kernel and
again after it. The second check is what guarantees re-dispatch of
in-flight work: a device killed mid-hash discards its results and raises
:class:`~repro.devices.flaky.DeviceFailure`, so the dispatcher replays
the batch's chunks on a survivor instead of trusting output from a
device that died under it.
"""

from __future__ import annotations

import dataclasses
import time
from collections import deque
from typing import NoReturn

import numpy as np

from repro.devices.base import DeviceModel
from repro.devices.flaky import DeviceFailure
from repro.hashes.registry import HashAlgorithm
from repro.reliability.breaker import BreakerState, CircuitBreaker

from repro.fleet.batcher import (
    BatchSlice,
    ContinuousBatcher,
    SliceOutcome,
    WorkerSet,
)

__all__ = ["FleetDevice"]

#: EWMA weight of the newest batch in per-device latency/rate estimates.
_EWMA_ALPHA = 0.3

#: What a heartbeat hashes: one row (any seed would do) in the batch form.
_PROBE_WORDS = np.zeros((1, 4), dtype=np.uint64)

#: Cap on injected slow-down sleep per batch, so a misconfigured factor
#: cannot wedge a device loop.
_MAX_THROTTLE_SLEEP = 1.0


class FleetDevice:
    """A health-checked device slot the fleet dispatcher places work on."""

    def __init__(
        self,
        name: str,
        algo: HashAlgorithm,
        *,
        fixed_padding: bool = True,
        model: DeviceModel | None = None,
        weight: float = 1.0,
        fairness_window: int = 64,
        breaker: CircuitBreaker | None = None,
        workers: WorkerSet | None = None,
    ):
        if weight <= 0:
            raise ValueError("weight must be positive")
        self.name = name
        self.algo = algo
        self.batcher = ContinuousBatcher(algo, fixed_padding, workers)
        self.model = model
        #: Fault stream discovered on the model (FlakyDeviceModel), if any.
        self.injector = getattr(model, "injector", None)
        self.weight = weight
        self.breaker = (
            breaker
            if breaker is not None
            else CircuitBreaker(failure_threshold=2, recovery_seconds=0.25)
        )
        self.killed = False
        #: Set once per quarantine episode; cleared on reinstatement.
        self.was_quarantined = False
        # -- dispatcher state (guarded by the scheduler's lock) --
        self.inflight = None  # the device's current _InflightBatch, if any
        self.recent_lanes: deque[str] = deque(maxlen=fairness_window)
        self.last_primary = None
        # -- accounting --
        self.batches = 0
        self.rows_hashed = 0
        self.failures = 0
        self.slowdowns = 0
        self.probes = 0
        self.ewma_batch_seconds: float | None = None
        self.ewma_rate: float | None = None

    # -- chaos switch ----------------------------------------------------

    def kill(self) -> None:
        """Simulate abrupt device loss; in-flight work will be discarded."""
        self.killed = True

    def revive(self) -> None:
        """Bring the hardware back; the breaker still gates reinstatement."""
        self.killed = False

    # -- health ----------------------------------------------------------

    @property
    def health(self) -> str:
        """``healthy`` / ``quarantined`` (open) / ``probation`` (half-open)."""
        state = self.breaker.state
        if state == BreakerState.OPEN:
            return "quarantined"
        if state == BreakerState.HALF_OPEN:
            return "probation"
        return "healthy"

    @property
    def placeable(self) -> bool:
        """Whether the dispatcher may assign new work to this device."""
        return self.breaker.state == BreakerState.CLOSED

    def probe(self) -> bool:
        """One heartbeat: a real (single) hash through this device's algorithm.

        Records the outcome on the breaker, so failed probes quarantine
        an idle dead device and successful probes close a half-open one
        (probation -> reinstatement). The fault injector is *not*
        consulted: probes observe health, they do not advance which
        searches fail. The row goes through ``hash_seeds_batch`` on this
        thread, as a narrow batch does in ``run_batch``; it costs
        microseconds, which an idle fleet heartbeating continuously can
        afford.
        """
        self.probes += 1
        ok = not self.killed
        if ok and self.model is not None:
            ok = bool(self.model.health_probe())
        if ok:
            try:
                self.algo.hash_seeds_batch(_PROBE_WORDS)
            except Exception:
                ok = False
        if ok:
            self.breaker.record_success()
        else:
            self.breaker.record_failure()
        return ok

    # -- the kernel path -------------------------------------------------

    def run_batch(self, slices: tuple[BatchSlice, ...]) -> list[SliceOutcome]:
        """Run one fused batch, subject to this device's faults.

        Raises :class:`DeviceFailure` (and records a breaker failure)
        when the device is killed or its fault stream schedules a
        failure; a scheduled slowdown stretches real wall time and the
        reported per-slice seconds.
        """
        if self.killed:
            self._fail()
        fault = self.injector.next() if self.injector is not None else None
        if fault == "fail":
            self._fail()
        start = time.perf_counter()
        outcomes = self.batcher.run(list(slices))
        if fault == "slow":
            self.slowdowns += 1
            factor = self.injector.spec.device_slow_factor
            elapsed = time.perf_counter() - start
            time.sleep(min(elapsed * (factor - 1.0), _MAX_THROTTLE_SLEEP))
            outcomes = [
                dataclasses.replace(o, seconds=o.seconds * factor)
                for o in outcomes
            ]
        if self.killed:
            # Killed mid-hash: the results are from a dead device — drop
            # them and let the dispatcher re-dispatch the chunks.
            self._fail()
        self.breaker.record_success()
        wall = time.perf_counter() - start
        rows = sum(o.rows for o in outcomes)
        self.batches += 1
        self.rows_hashed += rows
        rate = rows / max(wall, 1e-9)
        self.ewma_batch_seconds = (
            wall
            if self.ewma_batch_seconds is None
            else (1 - _EWMA_ALPHA) * self.ewma_batch_seconds + _EWMA_ALPHA * wall
        )
        self.ewma_rate = (
            rate
            if self.ewma_rate is None
            else (1 - _EWMA_ALPHA) * self.ewma_rate + _EWMA_ALPHA * rate
        )
        return outcomes

    def _fail(self) -> NoReturn:
        self.failures += 1
        self.breaker.record_failure()
        raise DeviceFailure(self.name, self.batches)

    # -- observation -----------------------------------------------------

    def snapshot(self) -> dict[str, object]:
        """Per-device counters for the fleet snapshot."""
        return {
            "health": self.health,
            "killed": self.killed,
            "weight": self.weight,
            "batches": self.batches,
            "rows_hashed": self.rows_hashed,
            "failures": self.failures,
            "slowdowns": self.slowdowns,
            "probes": self.probes,
            "ewma_batch_seconds": self.ewma_batch_seconds,
            "ewma_rate": self.ewma_rate,
            "breaker_transitions": self.breaker.transition_names(),
        }
