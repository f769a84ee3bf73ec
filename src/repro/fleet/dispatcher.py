"""The dispatcher: deadline-aware continuous batching over N >= 1 devices.

:class:`FleetScheduler` turns concurrent authentication requests into a
shared, continuously-batched work stream. Each submission is decomposed
into shell chunks (:mod:`repro.fleet.units`), admitted or shed by the
policy (:mod:`repro.fleet.policy`), and served rank range by rank range
through each device's fused batcher
(:mod:`repro.fleet.batcher`) — one dispatcher thread *per device* plus
a monitor thread. A request retires the moment its seed is found (its
remaining chunks are simply dropped — the per-request early exit), when
its shells are exhausted, when its protocol time budget expires (a
``timed_out`` result, exactly like the unscheduled engines), or when
its client deadline passes (a typed
:class:`~repro.refusals.RequestShed`). One device is the ``sched:``
engine; several modeled accelerators serve the same stream concurrently.

Placement and recovery rules:

* **Affinity** — each admitted request is assigned to the least-loaded
  placeable device and stays there; all of a request's batches run on
  its device, so the within-request candidate order is the single-engine
  order and results stay byte-identical.
* **At most one in-flight batch per request** — assembly skips requests
  whose previous batch has not settled, so outcomes commit in protocol
  order even when a hedge is racing the primary.
* **Re-dispatch** — a device that fails mid-batch (fault injection or
  the chaos kill switch) discards its results; the batch's chunk slices
  are pushed back onto each request's cursor *front*, so a survivor
  replays exactly the orphaned candidates before advancing.
* **Quarantine / probation** — each device's circuit breaker turns
  consecutive failures into quarantine; the monitor probes half-open
  devices and reinstates them on a successful heartbeat, re-placing any
  parked requests.
* **Hedging** — an idle device duplicates another device's unsettled
  batch once it is past the straggler latency threshold; the first
  result wins (a settle flag CASed under the fleet lock), the loser's
  output is discarded.
* **Grace shedding** — when every device has been quarantined for
  longer than the grace window, queued requests are shed with the typed
  reason ``no_healthy_devices`` instead of hanging their callers.
* **Never hang callers** — a device or monitor thread that dies of an
  unexpected exception closes the dispatcher and sheds every active
  request with the typed reason ``shutdown`` before re-raising.

Each of these events is counted once, where it happens, and read off
:meth:`FleetScheduler.snapshot`; a request's result carries only its
own seeds hashed and seconds per shell.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Sequence

from repro._bitutils import seed_to_words
from repro.devices.flaky import DeviceFailure
from repro.engines.result import SearchResult, ShellStats
from repro.fleet.batcher import BatchSlice, SliceOutcome, UnitCursor
from repro.fleet.device import FleetDevice
from repro.fleet.policy import SchedulingPolicy
from repro.fleet.scheduler import ScheduledSearch
from repro.fleet.units import DEFAULT_CHUNK_RANKS, decompose_search
from repro.net.errors import ServerClosed
from repro.refusals import Refusal, RequestShed
from repro.runtime.executor import BatchSearchExecutor
from repro.tenancy.context import DEFAULT_TENANT, TenantContext

__all__ = ["FleetScheduler"]

#: EWMA weight of the newest batch in the fleet throughput estimate.
_THROUGHPUT_ALPHA = 0.3

#: How many heartbeats an idle, all-healthy fleet lets pass between probes.
_IDLE_HEARTBEAT_STRETCH = 10

#: How often a device loop re-checks expiry and hedge thresholds while
#: requests are active (an idle fleet blocks until notified).
_TICK_SECONDS = 0.005


class _InflightBatch:
    """One fused batch handed to a device; settle-once under the lock."""

    __slots__ = (
        "device",
        "slices",
        "started",
        "settled",
        "hedge_device",
        "primary_failed",
    )

    def __init__(
        self, device: FleetDevice, slices: tuple[BatchSlice, ...], started: float
    ):
        self.device = device
        self.slices = slices
        self.started = started
        #: True once exactly one runner committed (or the batch was
        #: pushed back); every other runner discards its results.
        self.settled = False
        #: The device hedging this batch, if a hedge was launched.
        self.hedge_device: FleetDevice | None = None
        #: The primary died while a hedge was live; the hedge resolves
        #: the batch (commit on success, push-back on its own failure).
        self.primary_failed = False

    @property
    def requests(self) -> list[ScheduledSearch]:
        return [piece.key for piece in self.slices]  # type: ignore[misc]


class FleetScheduler:
    """Health-checked multi-device dispatch with re-dispatch and hedging."""

    def __init__(
        self,
        devices: Sequence[FleetDevice],
        executor: BatchSearchExecutor,
        *,
        chunk_ranks: int = DEFAULT_CHUNK_RANKS,
        max_queue: int = 256,
        policy: SchedulingPolicy | None = None,
        heartbeat_seconds: float = 0.02,
        hedge_factor: float | None = 4.0,
        hedge_min_seconds: float = 0.05,
        no_device_grace: float = 2.0,
        spec_string: str | None = None,
    ):
        if not devices:
            raise ValueError("a fleet needs at least one device")
        if len({d.name for d in devices}) != len(devices):
            raise ValueError("device names must be unique")
        if chunk_ranks < executor.batch_size:
            raise ValueError("chunk_ranks must be at least batch_size")
        if max_queue < 1:
            raise ValueError("max_queue must be positive")
        self.devices: tuple[FleetDevice, ...] = tuple(devices)
        #: The hash and batch width every device's cursor is cut to.
        self._executor = executor
        self.chunk_ranks = chunk_ranks
        self.max_queue = max_queue
        self.policy = policy if policy is not None else SchedulingPolicy()
        self._heartbeat = heartbeat_seconds
        self._hedge_factor = (
            hedge_factor if hedge_factor is not None and hedge_factor > 0 else None
        )
        self._hedge_min_seconds = hedge_min_seconds
        self._no_device_grace = no_device_grace
        #: What :meth:`describe` answers when set; the ``sched`` factory
        #: names its one-device fleet ``sched:...`` through it.
        self.spec_string = spec_string
        self._wake = threading.Condition()
        self._active: list[ScheduledSearch] = []
        #: Fleet-wide (tenant_id, rows) outcome window: fair share is
        #: enforced over the whole fleet's capacity, not per device.
        self._recent_tenant_rows: deque[tuple[str, int]] = deque(
            maxlen=self.policy.config.fairness_window
        )
        self._threads: list[threading.Thread] = []
        self._closed = False
        self._drain = True
        self._seq = 0
        self._throughput: float | None = None
        self._no_healthy_since: float | None = None
        # -- counters (guarded by _wake's lock) --
        self._admitted = 0
        self._completed = 0
        self._found = 0
        self._timed_out = 0
        self._shed: dict[str, int] = {}
        self._preempted = 0
        self._aged_promotions = 0
        self._peak_depth = 0
        self._batches_by_lane: dict[str, int] = {}
        self._redispatched = 0
        self._reassigned = 0
        self._hedges_launched = 0
        self._hedge_wins = 0
        self._hedges_cancelled = 0
        self._quarantines = 0
        self._reinstatements = 0
        self._tenant_admitted: dict[str, int] = {}
        self._tenant_shed: dict[str, int] = {}
        self._tenant_rows: dict[str, int] = {}

    # -- public geometry ------------------------------------------------

    @property
    def executor(self) -> BatchSearchExecutor:
        """The hash and batch width behind every device cursor."""
        return self._executor

    @property
    def batch_size(self) -> int:
        return self._executor.batch_size

    @property
    def hash_name(self) -> str:
        return self._executor.hash_name

    def describe(self) -> str:
        """Canonical spec string for this configuration."""
        if self.spec_string is not None:
            return self.spec_string
        names = ",".join(d.name for d in self.devices)
        return (
            f"fleet:{names},hash={self.hash_name},bs={self.batch_size}"
        )

    def device(self, name: str) -> FleetDevice:
        """The fleet member called ``name`` (raises ``KeyError``)."""
        for candidate in self.devices:
            if candidate.name == name:
                return candidate
        raise KeyError(
            f"no device {name!r}; fleet has: "
            f"{', '.join(d.name for d in self.devices)}"
        )

    def kill_device(self, name: str) -> None:
        """Chaos switch: abruptly lose one device (in-flight work too)."""
        self.device(name).kill()
        with self._wake:
            self._wake.notify_all()

    def revive_device(self, name: str) -> None:
        """Bring a killed device back; probes reinstate it via probation."""
        self.device(name).revive()
        with self._wake:
            self._wake.notify_all()

    def prime_throughput(self, hashes_per_second: float) -> None:
        """Seed the admission controller's fleet-throughput estimate."""
        if hashes_per_second <= 0:
            raise ValueError("throughput must be positive")
        with self._wake:
            self._throughput = hashes_per_second

    # -- submission -----------------------------------------------------

    def submit(
        self,
        base_seed: bytes,
        target_digest: bytes,
        max_distance: int,
        *,
        time_budget: float | None = None,
        deadline_seconds: float | None = None,
        client_id: str = "",
        tenant: TenantContext | str | None = None,
    ) -> ScheduledSearch:
        """Admit one search and place it on the least-loaded device.

        ``time_budget`` is the protocol threshold T — on expiry the
        request completes with a ``timed_out`` result, exactly like the
        unscheduled engines. ``deadline_seconds`` is the client's TTL —
        a request that cannot meet it (or outlives it) is *shed* with a
        typed :class:`RequestShed`. ``tenant`` attributes the request to
        a tenant for quota admission and weighted fair share; omitted,
        it runs under the default tenant exactly as before tenancy.
        Raises :class:`~repro.net.errors.ServerClosed` after :meth:`close`, and
        :class:`RequestShed` on admission rejection (full queue /
        hopeless deadline / exhausted tenant budget). When no device is
        placeable the request is *parked* and either placed on the next
        reinstatement or shed (``no_healthy_devices``) once the whole
        fleet stays dark past the grace window.
        """
        if max_distance < 0:
            raise ValueError("max_distance must be non-negative")
        if deadline_seconds is not None and deadline_seconds < 0:
            raise ValueError("deadline_seconds must be non-negative")
        if isinstance(tenant, TenantContext):
            tenant_id = tenant.tenant_id
        else:
            tenant_id = tenant or DEFAULT_TENANT
        now = time.perf_counter()
        units = decompose_search(max_distance, self.chunk_ranks)
        with self._wake:
            if self._closed:
                raise ServerClosed("fleet scheduler is closed")
            refusal = self.policy.admission_shed_reason(
                queue_depth=len(self._active),
                max_queue=self.max_queue,
                deadline_seconds=deadline_seconds,
                throughput=self._throughput,
                tenant_id=tenant_id,
            )
            if refusal is not None:
                self._shed[refusal.reason] = self._shed.get(refusal.reason, 0) + 1
                self._tenant_shed[tenant_id] = (
                    self._tenant_shed.get(tenant_id, 0) + 1
                )
                raise RequestShed(refusal, f"client {client_id!r}")
            self._seq += 1
            request = ScheduledSearch(
                seq=self._seq,
                client_id=client_id,
                base_words=seed_to_words(base_seed),
                target_words=self._executor.algo.digest_to_words(target_digest),
                max_distance=max_distance,
                lane=self.policy.lane_of(max_distance, deadline_seconds),
                submitted_at=now,
                time_budget=time_budget,
                expiry=None if time_budget is None else now + time_budget,
                deadline=(
                    None if deadline_seconds is None else now + deadline_seconds
                ),
                cursor=UnitCursor(units, self.batch_size),
                tenant_id=tenant_id,
            )
            request.device = self._place_locked()
            self._admitted += 1
            self._tenant_admitted[tenant_id] = (
                self._tenant_admitted.get(tenant_id, 0) + 1
            )
            self._active.append(request)
            self._peak_depth = max(self._peak_depth, len(self._active))
            self._ensure_threads_locked()
            self._wake.notify_all()
        return request

    def _place_locked(self) -> FleetDevice | None:
        placeable = [d for d in self.devices if d.placeable]
        if not placeable:
            return None
        return min(placeable, key=self._load_locked)

    def _load_locked(self, device: FleetDevice) -> float:
        load = sum(
            r.remaining_work for r in self._active if r.device is device
        )
        return load / device.weight

    def _ensure_threads_locked(self) -> None:
        if self._threads:
            return
        for device in self.devices:
            thread = threading.Thread(
                target=self._guarded,
                args=(self._device_loop, device),
                name=f"rbc-fleet-{device.name}",
                daemon=True,
            )
            self._threads.append(thread)
        monitor = threading.Thread(
            target=self._guarded,
            args=(self._monitor_loop,),
            name="rbc-fleet-monitor",
            daemon=True,
        )
        self._threads.append(monitor)
        for thread in self._threads:
            thread.start()

    # -- device loops ---------------------------------------------------

    def _exit_locked(self) -> bool:
        return self._closed and (not self._drain or not self._active)

    def _guarded(self, loop, *args) -> None:
        """Thread body: a loop that dies must never hang its callers.

        An unexpected exception (a kernel that raised something other
        than a device failure, an allocation failure while assembling a
        batch) closes the dispatcher, sheds every active request as
        ``shutdown`` and re-raises on this thread.
        Batches still running on other devices are marked settled, so
        their runners discard the results instead of committing to
        requests that were just shed.
        """
        try:
            loop(*args)
        except Exception:
            with self._wake:
                self._closed = True
                self._drain = False
                orphans = list(self._active)
                self._active.clear()
                for request in orphans:
                    if request.inflight_batch is not None:
                        request.inflight_batch.settled = True
                self._wake.notify_all()
            for request in orphans:
                self._finalize_shed(request, Refusal.SHUTDOWN)
            raise

    def _device_loop(self, device: FleetDevice) -> None:
        while True:
            expired: list[tuple[ScheduledSearch, str]] = []
            drained: list[ScheduledSearch] = []
            kind: str | None = None
            inflight: _InflightBatch | None = None
            with self._wake:
                if self._exit_locked():
                    return
                now = time.perf_counter()
                expired = self._expire_locked(now)
                if not expired:
                    kind, inflight, drained = self._assemble_locked(device, now)
                    if kind is None and not drained:
                        # Expiry and hedge thresholds are clock-driven,
                        # so poll while requests are active; an idle
                        # fleet blocks until submit / kill / revive /
                        # close notifies.
                        self._wake.wait(
                            timeout=_TICK_SECONDS if self._active else None
                        )
                        if self._exit_locked():
                            return
            for request, why in expired:
                if why == "deadline":
                    self._finalize_shed(request, Refusal.DEADLINE_EXPIRED)
                else:
                    self._finalize_result(request, timed_out=True)
            for request in drained:
                self._finalize_result(request, timed_out=False)
            if kind == "batch":
                assert inflight is not None
                self._run_primary(device, inflight)
            elif kind == "hedge":
                assert inflight is not None
                self._run_hedge(device, inflight)

    def _expire_locked(
        self, now: float
    ) -> list[tuple[ScheduledSearch, str]]:
        """Deadline/budget expiry for settled requests (lock held)."""
        expired: list[tuple[ScheduledSearch, str]] = []
        for request in self._active:
            if request.inflight_batch is not None:
                continue
            if request.deadline is not None and now > request.deadline:
                expired.append((request, "deadline"))
            elif (
                request.expiry is not None
                and now > request.expiry
                and (
                    request.shell_hashed
                    or now > request.expiry + (request.time_budget or 0.0)
                )
            ):
                expired.append((request, "budget"))
        for request, _ in expired:
            self._active.remove(request)
        return expired

    def _assemble_locked(
        self, device: FleetDevice, now: float
    ) -> tuple[str | None, _InflightBatch | None, list[ScheduledSearch]]:
        """Build this device's next batch, or find a hedge (lock held)."""
        if not device.placeable:
            return None, None, []
        runnable = [
            r
            for r in self._active
            if r.device is device and r.inflight_batch is None
        ]
        if not runnable:
            hedge = self._find_hedge_locked(device, now)
            if hedge is not None:
                return "hedge", hedge, []
            return None, None, []
        self._aged_promotions += self.policy.apply_aging(runnable, now)
        primary = self.policy.pick(
            runnable, device.recent_lanes, self._recent_tenant_rows
        )
        last = device.last_primary
        if (
            last is not None
            and last is not primary
            and not last.done()
            and last in runnable
        ):
            self._preempted += 1
        device.last_primary = primary

        slices: list[BatchSlice] = []
        drained: list[ScheduledSearch] = []
        room = self.batch_size
        for request in self.policy.fill_order(
            runnable, primary, self._recent_tenant_rows
        ):
            if room <= 0:
                break
            taken = request.cursor.take(room)
            if taken is None:
                drained.append(request)
                continue
            distance, lo, hi = taken
            slices.append(
                BatchSlice(
                    key=request,
                    distance=distance,
                    lo=lo,
                    hi=hi,
                    base_words=request.base_words,
                    target_words=request.target_words,
                )
            )
            room -= hi - lo
        for request in drained:
            self._active.remove(request)
        if not slices:
            return None, None, drained
        inflight = _InflightBatch(device, tuple(slices), now)
        for request in inflight.requests:
            request.inflight_batch = inflight
        device.inflight = inflight
        device.recent_lanes.append(primary.lane)
        self._batches_by_lane[primary.lane] = (
            self._batches_by_lane.get(primary.lane, 0) + 1
        )
        return "batch", inflight, drained

    def _find_hedge_locked(
        self, device: FleetDevice, now: float
    ) -> _InflightBatch | None:
        """An unsettled straggler batch on another device worth hedging."""
        if self._hedge_factor is None:
            return None
        ewmas = [
            d.ewma_batch_seconds
            for d in self.devices
            if d.ewma_batch_seconds is not None
        ]
        threshold = self._hedge_min_seconds
        if ewmas:
            threshold = max(
                threshold, self._hedge_factor * (sum(ewmas) / len(ewmas))
            )
        for other in self.devices:
            if other is device:
                continue
            inflight = other.inflight
            if (
                inflight is None
                or inflight.settled
                or inflight.hedge_device is not None
                or inflight.primary_failed
            ):
                continue
            if now - inflight.started >= threshold:
                inflight.hedge_device = device
                self._hedges_launched += 1
                return inflight
        return None

    def _run_primary(self, device: FleetDevice, inflight: _InflightBatch) -> None:
        try:
            outcomes = device.run_batch(inflight.slices)
        except DeviceFailure:
            self._on_device_failure(device, inflight)
            return
        self._commit(inflight, outcomes, device)

    def _run_hedge(self, device: FleetDevice, inflight: _InflightBatch) -> None:
        # The early-exit check: the primary may have settled the batch
        # while this hedge was queued behind the lock — cancel before
        # paying for the kernel.
        with self._wake:
            if inflight.settled:
                inflight.hedge_device = None
                self._hedges_cancelled += 1
                return
        try:
            outcomes = device.run_batch(inflight.slices)
        except DeviceFailure:
            self._on_device_failure(device, inflight)
            return
        self._commit(inflight, outcomes, device)

    # -- settlement -----------------------------------------------------

    def _commit(
        self,
        inflight: _InflightBatch,
        outcomes: list[SliceOutcome],
        winner: FleetDevice,
    ) -> None:
        """First-result-wins settlement plus per-request accounting."""
        found: list[tuple[ScheduledSearch, SliceOutcome]] = []
        with self._wake:
            if inflight.settled:
                # Lost the race: the other runner already committed.
                self._hedges_cancelled += 1
                return
            inflight.settled = True
            if inflight.device.inflight is inflight:
                inflight.device.inflight = None
            hedge_won = winner is not inflight.device
            if hedge_won:
                self._hedge_wins += 1
            total_rows = sum(outcome.rows for outcome in outcomes)
            total_seconds = max(
                sum(outcome.seconds for outcome in outcomes), 1e-9
            )
            rate = total_rows / total_seconds
            self._throughput = (
                rate
                if self._throughput is None
                else (1 - _THROUGHPUT_ALPHA) * self._throughput
                + _THROUGHPUT_ALPHA * rate
            )
            for outcome in outcomes:
                request: ScheduledSearch = outcome.key  # type: ignore[assignment]
                request.inflight_batch = None
                if request.device is not winner and (
                    hedge_won or request.device is None
                ):
                    # The winner proved responsive — move affinity there.
                    if request.device is not None:
                        self._reassigned += 1
                    request.device = winner
                request.remaining_work = max(
                    0, request.remaining_work - outcome.rows
                )
                request.shell_hashed[outcome.distance] = (
                    request.shell_hashed.get(outcome.distance, 0) + outcome.rows
                )
                request.shell_seconds[outcome.distance] = (
                    request.shell_seconds.get(outcome.distance, 0.0)
                    + outcome.seconds
                )
                self._recent_tenant_rows.append(
                    (request.tenant_id, outcome.rows)
                )
                self._tenant_rows[request.tenant_id] = (
                    self._tenant_rows.get(request.tenant_id, 0) + outcome.rows
                )
                if outcome.seed is not None:
                    self._active.remove(request)
                    found.append((request, outcome))
            self._wake.notify_all()
        for request, outcome in found:
            self._finalize_result(
                request,
                timed_out=False,
                seed=outcome.seed,
                distance=outcome.distance,
            )

    def _on_device_failure(
        self, device: FleetDevice, inflight: _InflightBatch
    ) -> None:
        """A device raised mid-batch: re-dispatch, maybe quarantine."""
        with self._wake:
            is_primary = inflight.device is device
            if is_primary and device.inflight is inflight:
                device.inflight = None
            if not inflight.settled:
                if is_primary:
                    if inflight.hedge_device is not None:
                        # A hedge is racing: it commits on success or
                        # pushes the chunks back on its own failure.
                        inflight.primary_failed = True
                    else:
                        self._push_back_locked(inflight)
                else:
                    inflight.hedge_device = None
                    if inflight.primary_failed:
                        # Both runners died: the chunks are orphaned.
                        self._push_back_locked(inflight)
            self._note_quarantine_locked(device)
            self._wake.notify_all()

    def _push_back_locked(self, inflight: _InflightBatch) -> None:
        """Replay the batch's chunk slices at each cursor's front."""
        inflight.settled = True
        for piece in reversed(inflight.slices):
            request: ScheduledSearch = piece.key  # type: ignore[assignment]
            request.cursor.push_back(piece.distance, piece.lo, piece.hi)
            self._redispatched += 1
        for request in inflight.requests:
            request.inflight_batch = None

    def _note_quarantine_locked(self, device: FleetDevice) -> None:
        if device.breaker.state == "closed":
            return
        if not device.was_quarantined:
            device.was_quarantined = True
            self._quarantines += 1
        self._reassign_away_locked(device)

    def _reassign_away_locked(self, device: FleetDevice) -> None:
        """Move a quarantined device's queued requests to survivors."""
        survivors = [
            d for d in self.devices if d is not device and d.placeable
        ]
        for request in self._active:
            if request.device is not device or request.inflight_batch is not None:
                continue
            if survivors:
                target = min(survivors, key=self._load_locked)
                request.device = target
                self._reassigned += 1
                self._redispatched += request.cursor.pending_chunks
            else:
                request.device = None

    # -- monitor --------------------------------------------------------

    def _monitor_loop(self) -> None:
        while True:
            to_probe: list[FleetDevice] = []
            with self._wake:
                if self._exit_locked():
                    return
                # With no request active and every breaker closed, the
                # heartbeat only has to notice a device dying without
                # work, so it runs at a fraction of the rate; submit /
                # kill / revive still wake the monitor at once.
                idle = not self._active and all(
                    d.placeable for d in self.devices
                )
                self._wake.wait(
                    timeout=self._heartbeat
                    * (_IDLE_HEARTBEAT_STRETCH if idle else 1)
                )
                if self._exit_locked():
                    return
                for device in self.devices:
                    state = device.breaker.state
                    if state == "half_open":
                        if device.breaker.allow_request():
                            to_probe.append(device)
                    elif state == "closed" and device.inflight is None and not any(
                        r.device is device for r in self._active
                    ):
                        # Idle healthy devices heartbeat too, so a dead
                        # device without work is still detected.
                        to_probe.append(device)
            for device in to_probe:
                device.probe()
            shed: list[ScheduledSearch] = []
            with self._wake:
                for device in to_probe:
                    state = device.breaker.state
                    if state == "closed" and device.was_quarantined:
                        device.was_quarantined = False
                        self._reinstatements += 1
                    elif state != "closed":
                        self._note_quarantine_locked(device)
                placeable = [d for d in self.devices if d.placeable]
                now = time.perf_counter()
                if placeable:
                    self._no_healthy_since = None
                    for request in self._active:
                        if request.device is None:
                            request.device = min(
                                placeable, key=self._load_locked
                            )
                else:
                    if self._no_healthy_since is None:
                        self._no_healthy_since = now
                    elif now - self._no_healthy_since > self._no_device_grace:
                        shed = [
                            r
                            for r in self._active
                            if r.inflight_batch is None
                        ]
                        for request in shed:
                            self._active.remove(request)
                self._wake.notify_all()
            for request in shed:
                self._finalize_shed(request, Refusal.NO_HEALTHY_DEVICES)

    # -- finalization ---------------------------------------------------

    def _finalize_result(
        self,
        request: ScheduledSearch,
        *,
        timed_out: bool,
        seed: bytes | None = None,
        distance: int | None = None,
    ) -> None:
        found = seed is not None
        result = SearchResult(
            found=found,
            seed=seed,
            distance=distance,
            seeds_hashed=sum(request.shell_hashed.values()),
            elapsed_seconds=time.perf_counter() - request.submitted_at,
            timed_out=timed_out,
            shells=tuple(
                ShellStats(d, request.shell_hashed[d], request.shell_seconds[d])
                for d in sorted(request.shell_hashed)
            ),
            engine=self.describe(),
        )
        with self._wake:
            self._completed += 1
            if found:
                self._found += 1
            if timed_out:
                self._timed_out += 1
        request._resolve(result, None)

    def _finalize_shed(self, request: ScheduledSearch, refusal: Refusal) -> None:
        with self._wake:
            self._shed[refusal.reason] = self._shed.get(refusal.reason, 0) + 1
            self._tenant_shed[request.tenant_id] = (
                self._tenant_shed.get(request.tenant_id, 0) + 1
            )
        request._resolve(
            None, RequestShed(refusal, f"client {request.client_id!r}")
        )

    # -- observation ----------------------------------------------------

    def snapshot(self) -> dict[str, object]:
        """A consistent copy of the fleet's counters."""
        with self._wake:
            shed_reasons = dict(self._shed)
            tenant_ids = sorted(
                set(self._tenant_admitted)
                | set(self._tenant_shed)
                | set(self._tenant_rows)
            )
            total_tenant_rows = sum(self._tenant_rows.values())
            tenants = {
                tenant_id: {
                    "admitted": self._tenant_admitted.get(tenant_id, 0),
                    "shed": self._tenant_shed.get(tenant_id, 0),
                    "rows": self._tenant_rows.get(tenant_id, 0),
                    "device_share": (
                        self._tenant_rows.get(tenant_id, 0)
                        / total_tenant_rows
                        if total_tenant_rows
                        else 0.0
                    ),
                }
                for tenant_id in tenant_ids
            }
            return {
                "admitted": self._admitted,
                "completed": self._completed,
                "found": self._found,
                "timed_out": self._timed_out,
                "shed": sum(shed_reasons.values()),
                "shed_reasons": shed_reasons,
                "preempted": self._preempted,
                "aged_promotions": self._aged_promotions,
                "queue_depth": len(self._active),
                "peak_queue_depth": self._peak_depth,
                "batches": sum(d.batcher.batches for d in self.devices),
                "shared_batches": sum(
                    d.batcher.shared_batches for d in self.devices
                ),
                "batches_by_lane": dict(self._batches_by_lane),
                "throughput": self._throughput,
                "redispatched_chunks": self._redispatched,
                "reassigned_requests": self._reassigned,
                "hedges_launched": self._hedges_launched,
                "hedge_wins": self._hedge_wins,
                "hedges_cancelled": self._hedges_cancelled,
                "quarantines": self._quarantines,
                "reinstatements": self._reinstatements,
                "probes": sum(d.probes for d in self.devices),
                "devices": {d.name: d.snapshot() for d in self.devices},
                "tenants": tenants,
            }

    # -- lifecycle ------------------------------------------------------

    def close(self, drain: bool = True) -> None:
        """Stop admissions and retire every device loop deterministically.

        With ``drain=True`` in-flight requests run to their natural
        outcome on whatever devices survive (grace shedding still
        applies if the whole fleet is dark); with ``drain=False``
        pending requests are shed with reason ``"shutdown"``. When this
        method returns, every thread has exited and every ticket is
        resolved. Idempotent.
        """
        with self._wake:
            if not self._closed:
                self._closed = True
                self._drain = drain
            threads = list(self._threads)
            self._wake.notify_all()
        for thread in threads:
            thread.join()
        leftovers: list[ScheduledSearch] = []
        with self._wake:
            if self._active:
                leftovers = list(self._active)
                self._active.clear()
        for request in leftovers:
            self._finalize_shed(request, Refusal.SHUTDOWN)

    def __enter__(self) -> "FleetScheduler":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
