"""One fleet member: a device slot with health, faults, and accounting.

A :class:`FleetDevice` bundles everything the dispatcher needs to know
about one modeled accelerator:

* the kernel path, :meth:`FleetDevice.run_batch`: one fused batch of
  many requests' rank ranges, scanned from the thread running the device
  (its own, or a submitter's, one at a time) with
  :func:`~repro.fleet.batcher.first_matches`, each range walked in C on
  the device's ``workers`` cores and cut short by its request's stop
  byte;
* an optional :class:`~repro.devices.base.DeviceModel` whose fault
  injector (if any) schedules failures per batch;
* a per-device :class:`~repro.reliability.breaker.CircuitBreaker` that
  turns consecutive failures into quarantine (open), probation
  (half-open), and reinstatement (closed);
* a ``kill()`` / ``revive()`` switch the chaos harness flips mid-run.

The kill switch is checked *twice* per batch — before the kernel and
again after it. The second check is what guarantees re-dispatch of
in-flight work: a device killed mid-hash discards its results and raises
:class:`~repro.devices.flaky.DeviceFailure`, so the dispatcher replays
the batch's ranges on a survivor instead of trusting output from a
device that died under it.
"""

from __future__ import annotations

import time
from collections import deque
from typing import NoReturn

import numpy as np

from repro.devices.base import DeviceModel
from repro.devices.flaky import DeviceFailure
from repro.fleet import batcher
from repro.fleet.batcher import BatchSlice, SliceOutcome
from repro.hashes.registry import HashAlgorithm
from repro.reliability.breaker import BreakerState, CircuitBreaker

__all__ = ["FleetDevice"]

#: EWMA weight of the newest batch in the per-device rate estimate.
_EWMA_ALPHA = 0.3

#: What a heartbeat hashes: one row (any seed would do) in the batch form.
_PROBE_WORDS = np.zeros((1, 4), dtype=np.uint64)


class FleetDevice:
    """A health-checked device slot that pulls work from the fleet's stream."""

    def __init__(
        self,
        name: str,
        algo: HashAlgorithm,
        *,
        fixed_padding: bool = True,
        model: DeviceModel | None = None,
        fairness_window: int = 64,
        breaker: CircuitBreaker | None = None,
        workers: int = 1,
    ):
        self.name = name
        self.algo = algo
        #: Cores a range is hashed on: the device thread and up to
        #: ``workers - 1`` of the kernel's pool helpers. A batch has room
        #: for ``workers`` times the dispatcher's ``batch_size`` rows.
        self.workers = workers
        self.fixed_padding = fixed_padding
        self.model = model
        #: Fault stream discovered on the model (FlakyDeviceModel), if any.
        self.injector = getattr(model, "injector", None)
        self.breaker = (
            breaker
            if breaker is not None
            else CircuitBreaker(failure_threshold=2, recovery_seconds=0.25)
        )
        self.killed = False
        #: Set once per quarantine episode; cleared on reinstatement.
        self.was_quarantined = False
        # -- dispatcher state (guarded by the scheduler's lock) --
        #: A thread — the device's own or a submitter — is running a
        #: batch on it; no other thread may until it is cleared.
        self.busy = False
        self.recent_lanes: deque[str] = deque(maxlen=fairness_window)
        self.last_primary = None
        # -- accounting --
        #: Batches whose results this device returned / of those, the
        #: ones carrying more than one request.
        self.batches = 0
        self.shared_batches = 0
        self.rows_hashed = 0
        self.failures = 0
        self.probes = 0
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
        """Whether this device may pull new work."""
        return self.breaker.state == BreakerState.CLOSED

    def probe(self) -> bool:
        """One heartbeat: a real (single) hash through this device's algorithm.

        Records the outcome on the breaker, so failed probes quarantine
        an idle dead device and successful probes close a half-open one
        (probation -> reinstatement). The fault injector is *not*
        consulted: probes observe health, they do not advance which
        searches fail. The row goes through ``hash_seeds_batch`` on the
        calling (monitor) thread; it costs microseconds, which an idle
        fleet heartbeating continuously can afford.
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
        """Scan every slice's ranks as one fused batch on this device's
        ``workers`` cores, subject to its faults.

        Raises :class:`DeviceFailure` (and records a breaker failure)
        when the device is killed or its fault stream schedules a
        failure. Each outcome carries the seed at the slice's lowest
        matching rank, if any, the rows the slice counts (those scanned,
        if its request's stop byte cut it short) and its share of the
        batch's seconds. The rows counted are what ``rows_hashed`` and
        the rate estimate see; a batch that scanned nothing leaves the
        estimate alone.
        """
        if self.killed:
            self._fail()
        fault = self.injector.next() if self.injector is not None else None
        if fault == "fail":
            self._fail()
        start = time.perf_counter()
        hits = batcher.first_matches(
            self.algo, self.fixed_padding, slices, self.workers
        )
        elapsed = time.perf_counter() - start
        if self.killed:
            # Killed mid-hash: the results are from a dead device — drop
            # them and let the dispatcher re-dispatch the ranges.
            self._fail()
        self.breaker.record_success()
        rows = sum(counted for _row, counted in hits)
        self.batches += 1
        self.shared_batches += len(slices) > 1
        self.rows_hashed += rows
        if rows:
            rate = rows / max(elapsed, 1e-9)
            self.ewma_rate = (
                rate
                if self.ewma_rate is None
                else (1 - _EWMA_ALPHA) * self.ewma_rate + _EWMA_ALPHA * rate
            )
        return [
            SliceOutcome(
                key=piece.key,
                distance=piece.distance,
                rows=counted,
                seed=(
                    None
                    if row is None
                    else batcher.seed_at(piece.seed, piece.distance, piece.lo + row)
                ),
                seconds=elapsed * counted / max(rows, 1),
                rank=None if row is None else piece.lo + row,
            )
            for piece, (row, counted) in zip(slices, hits)
        ]

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
            "batches": self.batches,
            "rows_hashed": self.rows_hashed,
            "failures": self.failures,
            "probes": self.probes,
            "ewma_rate": self.ewma_rate,
            "breaker_transitions": self.breaker.transition_names(),
        }
