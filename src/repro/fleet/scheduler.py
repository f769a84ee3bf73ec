"""The dispatcher's ticket: one admitted search request.

:class:`ScheduledSearch` is what :meth:`FleetScheduler.submit
<repro.fleet.dispatcher.FleetScheduler.submit>` hands back and what the
dispatcher threads advance: the caller's handle (:meth:`~ScheduledSearch.result`,
:meth:`~ScheduledSearch.done`, :meth:`~ScheduledSearch.add_done_callback`)
plus the per-request state the policy orders by (``lane`` / ``deadline`` /
``remaining_work`` / ``seq``), the chunk cursor, the device placement and
the rows and seconds per shell that become the result. What the
dispatcher did around a request — preemptions, re-dispatched chunks,
hedges — is counted once, on the dispatcher (``FleetScheduler.snapshot()``),
not on the ticket. There is one ticket class for every fleet size — a
``sched:`` engine is the one-device fleet.

Equivalence contract the dispatcher keeps per ticket: a request visits
candidates in the same order as
:class:`~repro.runtime.executor.BatchSearchExecutor` — distance-0 probe
first, then ascending shells in ascending rank order — so scheduled
searches return byte-identical seeds to unscheduled ones. Concurrency
interleaves *between* requests, never reorders within one.
"""

from __future__ import annotations

import threading
from collections.abc import Callable
from typing import TYPE_CHECKING

import numpy as np

from repro.engines.result import SearchResult
from repro.fleet.batcher import UnitCursor
from repro.fleet.units import expected_work
from repro.refusals import RequestShed
from repro.tenancy.context import DEFAULT_TENANT

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.fleet.device import FleetDevice

__all__ = ["ScheduledSearch"]


class ScheduledSearch:
    """One admitted request: the caller's ticket and the dispatcher's state.

    Callers use :meth:`result`, :meth:`done`, and
    :meth:`add_done_callback`; every other attribute belongs to the
    dispatcher (policy ordering reads ``lane`` / ``deadline`` /
    ``remaining_work`` / ``seq``).
    """

    def __init__(
        self,
        *,
        seq: int,
        client_id: str,
        base_words: np.ndarray,
        target_words: np.ndarray,
        max_distance: int,
        lane: str,
        submitted_at: float,
        time_budget: float | None,
        expiry: float | None,
        deadline: float | None,
        cursor: UnitCursor,
        tenant_id: str = DEFAULT_TENANT,
    ):
        self.seq = seq
        self.client_id = client_id
        #: Which tenant this request belongs to (fair-share + telemetry).
        self.tenant_id = tenant_id
        self.base_words = base_words
        self.target_words = target_words
        self.max_distance = max_distance
        self.lane = lane
        self.submitted_at = submitted_at
        self.time_budget = time_budget
        #: Absolute protocol time-budget expiry (T), or None.
        self.expiry = expiry
        #: Absolute client deadline (shed past this), or None.
        self.deadline = deadline
        self.cursor = cursor
        self.remaining_work = expected_work(max_distance)
        #: Promoted into the express lane by starvation-free aging.
        self.aged = False
        # -- rows and seconds per shell committed so far --
        self.shell_hashed: dict[int, int] = {}
        self.shell_seconds: dict[int, float] = {}
        # -- placement, guarded by the dispatcher's lock --
        #: Current device affinity, or None while parked.
        self.device: FleetDevice | None = None
        #: The unsettled batch carrying this request's chunks, if any.
        self.inflight_batch = None
        # -- completion --
        self._done = threading.Event()
        self._result: SearchResult | None = None
        self._error: RequestShed | None = None
        self._callbacks: list[Callable[["ScheduledSearch"], None]] = []
        self._callback_lock = threading.Lock()

    # -- caller surface -------------------------------------------------

    def done(self) -> bool:
        """True once the request has a result or was shed."""
        return self._done.is_set()

    def result(self, timeout: float | None = None) -> SearchResult:
        """Block for the outcome; raises :class:`RequestShed` if shed."""
        if not self._done.wait(timeout):
            raise TimeoutError("scheduled search still in flight")
        if self._error is not None:
            raise self._error
        assert self._result is not None
        return self._result

    def add_done_callback(
        self, callback: Callable[["ScheduledSearch"], None]
    ) -> None:
        """Run ``callback(self)`` when the request retires.

        Fires immediately if already done. Callbacks run on the
        dispatcher thread — keep them cheap.
        """
        with self._callback_lock:
            if not self._done.is_set():
                self._callbacks.append(callback)
                return
        callback(self)

    # -- dispatcher surface ---------------------------------------------

    def _resolve(
        self, result: SearchResult | None, error: RequestShed | None
    ) -> None:
        with self._callback_lock:
            self._result = result
            self._error = error
            self._done.set()
            callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            callback(self)
