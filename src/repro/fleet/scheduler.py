"""The dispatcher's ticket: one admitted search request.

:class:`ScheduledSearch` is what :meth:`FleetScheduler.submit
<repro.fleet.dispatcher.FleetScheduler.submit>` hands back and what the
dispatcher threads advance: the caller's handle (:meth:`~ScheduledSearch.result`,
:meth:`~ScheduledSearch.done`, :meth:`~ScheduledSearch.add_done_callback`)
plus the per-request state the policy orders by (``lane`` / ``deadline`` /
``remaining_work`` / ``seq``), the shell cursor, the stop byte its
running ranges read, the ranges running on devices or waiting to
commit, and the rows and seconds per shell that become the result.
What the dispatcher did around a request — preemptions, re-dispatched
ranges — is counted once, on the dispatcher
(``FleetScheduler.snapshot()``), not on the ticket. There is one
ticket class for every fleet size — a ``sched:`` engine is the one-host
fleet.

Equivalence contract the dispatcher keeps per ticket: a request commits
candidates in the same order as
:class:`~repro.runtime.executor.BatchSearchExecutor` — shell 0, the
enrolled seed itself, and shell 1 hashed and committed at admission
(shell 1 counted as ``batch_size`` batches cut it), then ascending
shells in ascending rank order, a match counting its shell up to the
end of its ``batch_size`` batch however the ranges were cut — so
scheduled searches return byte-identical results to unscheduled ones,
``seeds_hashed`` included. Devices hash a request's
ranges concurrently; its commits never reorder. A request settled by
shell 0 or 1 never enters the stream.
"""

from __future__ import annotations

import ctypes
import threading
from collections.abc import Callable
from typing import TYPE_CHECKING

from repro.combinatorics.binomial import exhaustive_seed_count
from repro.engines.result import SearchResult
from repro.fleet.batcher import Ranks, ShellCursor, SliceOutcome
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
        seed: bytes,
        digest: bytes,
        max_distance: int,
        lane: str,
        submitted_at: float,
        time_budget: float | None,
        expiry: float | None,
        deadline: float | None,
        cursor: ShellCursor,
        tenant_id: str = DEFAULT_TENANT,
    ):
        self.seq = seq
        self.client_id = client_id
        #: Which tenant this request belongs to (fair-share + telemetry).
        self.tenant_id = tenant_id
        #: The enrolled seed and the client's digest, as the scan takes them.
        self.seed = seed
        self.digest = digest
        #: Set once, when the request retires: its ranges still running
        #: on devices stop within eight rows.
        self.stop = ctypes.c_uint8(0)
        self.max_distance = max_distance
        self.lane = lane
        self.submitted_at = submitted_at
        self.time_budget = time_budget
        #: Absolute protocol time-budget expiry (T), or None.
        self.expiry = expiry
        #: Absolute client deadline (shed past this), or None.
        self.deadline = deadline
        self.cursor = cursor
        self.remaining_work = exhaustive_seed_count(max_distance)
        #: Promoted into the express lane by starvation-free aging.
        self.aged = False
        # -- rows and seconds per shell committed so far --
        self.shell_hashed: dict[int, int] = {}
        self.shell_seconds: dict[int, float] = {}
        # -- the stream, guarded by the dispatcher's lock --
        #: The range each device is hashing for this request (one each).
        self.running: dict[FleetDevice, Ranks] = {}
        #: Hashed ranges waiting for a lower one to commit, in rank order.
        self.hashed: list[tuple[Ranks, SliceOutcome]] = []
        #: Out of the stream: matched, exhausted, expired or shed.
        self.retired = False
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

        Fires immediately if already done. Callbacks run on the thread
        that settles the request — a dispatcher thread, or the submitter
        inside ``submit`` — keep them cheap.
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
