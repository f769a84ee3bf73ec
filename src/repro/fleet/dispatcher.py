"""The dispatcher: deadline-aware continuous batching over N >= 1 devices.

:class:`FleetScheduler` turns concurrent authentication requests into a
shared, continuously-batched work stream. Each submission is admitted
or shed by the policy (:mod:`repro.fleet.policy`), has its shells 0
and 1 — the enrolled seed itself and its 256 neighbours — answered on
the submitting thread, and is then walked shell by shell from shell 2 by
its cursor (:mod:`repro.fleet.batcher`), one range at a time,
through each device's fused batches — one dispatcher thread *per
device* plus a monitor thread, except that a request fitting one range
on an idle device is run by ``submit`` itself. A request retires the moment
its seed is found (its remaining ranges are simply dropped — the
per-request early exit), when its shells are exhausted, when its
protocol time budget expires (a ``timed_out`` result, exactly like the
unscheduled engines), or when its client deadline passes (a typed
:class:`~repro.refusals.RequestShed`). A ``host`` is one device that
hashes each range on all its cores in one C call (the kernel's thread
pool), and modeled accelerators are devices too; all of them serve the
same stream concurrently, one search included.

Placement and recovery rules:

* **Shells 0 and 1 at the door** — :meth:`FleetScheduler.submit`
  hashes the enrolled seed, then its 256 neighbours, with the scan every
  device uses, and commits them as ``batch:`` counts them (shell 1 cut
  into ``batch_size`` batches) before the request reaches the stream. A
  match, or a ``max_distance`` of 0 or 1, settles the ticket before
  ``submit`` returns: no device is woken and none needs to be healthy.
  A miss enters the stream with shells 0 and 1 committed, so devices
  only ever see shells 2..d.
* **One range on the submitting thread** — a miss whose remaining rows
  fit one range (a ``max_distance`` of 2, with shell 2's 32 640 ranks
  within a device's room) and finds a placeable device free has that
  device's batch assembled under the same lock hold, as a device thread
  assembles one, and run by ``submit`` itself: the request settles
  before ``submit`` returns and no device thread is woken. Any other
  miss wakes the device threads, and the kernel's pool, so its helpers
  are spinning when the first range reaches them.
* **One runner per device** — a device runs one batch at a time, on
  its own thread or a submitter's: it is marked busy when the batch is
  assembled for it and cleared in the lock hold that commits or fails
  it, and assembly skips a busy device. A request submitted
  while a submitter holds the device is pulled by the device's thread
  after that commit.
* **Pull** — a device that finishes a batch assembles its next one from
  every active request's cursor: no request is pinned to a device, so
  one search's rank ranges run on every device at once and no device
  waits for another's batch (the paper's OpenMP threads, §4.3, and its
  chunks across GPUs, §4.8).
* **At most one in-flight range per request per device** — assembly on
  a device skips requests that already have a range running there.
* **Ranges cut anywhere** — a device's batch has room for
  ``batch_size`` rows per core it hashes on, and each request's cursor
  serves whatever room is left. A range that holds a match commits its
  rows up to the end of the ``batch_size`` batch holding it
  (:func:`~repro.fleet.batcher.batch_end`), the door's shell-1 rule, so
  ``seeds_hashed`` equals ``batch:``'s whoever shared the batch.
* **Rank-ordered settle** — a hashed range commits only once every lower
  range of its request has committed, so a request settles on the match
  at the lowest rank, the single-engine candidate order, and results
  stay byte-identical. A match drops every range above it, hashed or
  running, and sets the request's stop byte, which a running range's
  scan reads once per eight rows: the paper's exit flag (§4.4). Any
  retirement sets it — a match, a budget expiry, a deadline shed, a
  close. A result counts committed ranges only; the rows hashed past a
  match show in the devices' ``rows_hashed`` and nowhere else.
* **Re-dispatch** — a device that fails mid-batch (fault injection or
  the chaos kill switch) discards its results; the batch's ranges are
  pushed back onto each request's cursor ahead of everything unserved,
  so a survivor replays exactly the orphaned candidates.
* **Quarantine / probation** — each device's circuit breaker turns
  consecutive failures into quarantine, and a quarantined device pulls
  nothing; the monitor probes half-open devices and reinstates them on
  a successful heartbeat. The monitor keeps its own heartbeat: only a
  kill, a revive, a close or a dying thread cuts its wait short, never
  a submission or a commit.
* **Grace shedding** — when every device has been quarantined for
  longer than the grace window, queued requests are shed with the typed
  reason ``no_healthy_devices`` instead of hanging their callers (a
  request that shell 0 or 1 settles at the door is answered all the
  same).
* **Never hang callers** — a device or monitor thread, or a submitter
  running a range, that dies of an unexpected exception closes the
  dispatcher and sheds every active request with the typed reason
  ``shutdown`` before re-raising (to the caller of ``submit``, for a
  submitter). A device failure in a submitter's range re-dispatches it
  as on a device thread.

Each of these events is counted once, where it happens, and read off
:meth:`FleetScheduler.snapshot`; a request's result carries only its
own seeds hashed and seconds per shell.
"""

from __future__ import annotations

import bisect
import threading
import time
from collections import deque
from typing import Sequence

from repro._bitutils import SEED_BITS, SEED_BYTES
from repro.combinatorics.binomial import binomial
from repro.devices.flaky import DeviceFailure
from repro.engines.result import SearchResult, ShellStats
from repro.fleet import batcher
from repro.fleet.batcher import BatchSlice, ShellCursor, SliceOutcome
from repro.fleet.device import FleetDevice
from repro.fleet.policy import SchedulingPolicy
from repro.fleet.scheduler import ScheduledSearch
from repro.hashes import compiled
from repro.net.errors import ServerClosed
from repro.refusals import Refusal, RequestShed
from repro.runtime.executor import BatchSearchExecutor
from repro.tenancy.context import DEFAULT_TENANT, TenantContext

__all__ = ["FleetScheduler"]

#: EWMA weight of the newest full batch in the fleet throughput
#: estimate; a batch of fewer rows weighs its share of the device's room.
_THROUGHPUT_ALPHA = 0.3

#: How many heartbeats an idle, all-healthy fleet lets pass between probes.
_IDLE_HEARTBEAT_STRETCH = 10

#: How often a device loop re-checks budget and deadline expiry while
#: requests are active (an idle fleet blocks until notified).
_TICK_SECONDS = 0.005


class FleetScheduler:
    """Health-checked multi-device dispatch with re-dispatch."""

    def __init__(
        self,
        devices: Sequence[FleetDevice],
        executor: BatchSearchExecutor,
        *,
        max_queue: int = 256,
        policy: SchedulingPolicy | None = None,
        heartbeat_seconds: float = 0.02,
        no_device_grace: float = 2.0,
        spec_string: str | None = None,
    ):
        if not devices:
            raise ValueError("a fleet needs at least one device")
        if len({d.name for d in devices}) != len(devices):
            raise ValueError("device names must be unique")
        if max_queue < 1:
            raise ValueError("max_queue must be positive")
        self.devices: tuple[FleetDevice, ...] = tuple(devices)
        #: The hash and batch width every device's cursor is cut to.
        self._executor = executor
        self.max_queue = max_queue
        self.policy = policy if policy is not None else SchedulingPolicy()
        self._heartbeat = heartbeat_seconds
        self._no_device_grace = no_device_grace
        #: The kernel whose pool a request entering the stream wakes, when
        #: a device hashes on more than one core.
        self._pool = (
            compiled.load() if any(d.workers > 1 for d in self.devices) else None
        )
        #: What :meth:`describe` answers when set; the ``sched`` factory
        #: names its one-host fleet ``sched:...`` through it.
        self.spec_string = spec_string
        lock = threading.RLock()
        #: Wakes the device loops (work, health or lifecycle changed).
        self._wake = threading.Condition(lock)
        #: Wakes the monitor before its heartbeat: kill / revive / close
        #: / a dying thread only, so serving traffic never triggers probes.
        self._monitor_wake = threading.Condition(lock)
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
        self._notify_everyone()

    def revive_device(self, name: str) -> None:
        """Bring a killed device back; probes reinstate it via probation."""
        self.device(name).revive()
        self._notify_everyone()

    def _notify_everyone(self) -> None:
        """Wake the device loops and the monitor."""
        with self._wake:
            self._wake.notify_all()
            self._monitor_wake.notify_all()

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
        """Admit one search into the stream every device pulls from.

        ``time_budget`` is the protocol threshold T — on expiry the
        request completes with a ``timed_out`` result, exactly like the
        unscheduled engines. ``deadline_seconds`` is the client's TTL —
        a request that cannot meet it (or outlives it) is *shed* with a
        typed :class:`RequestShed`. ``tenant`` attributes the request to
        a tenant for quota admission and weighted fair share; omitted,
        it runs under the default tenant exactly as before tenancy.
        Raises :class:`~repro.net.errors.ServerClosed` after :meth:`close`, and
        :class:`RequestShed` on admission rejection (full queue /
        hopeless deadline / exhausted tenant budget).

        An admitted request's shells 0 and 1 are hashed here, on the
        calling thread (one C call each, ≈ 20 µs for shell 1's 256
        ranks): a match, or ``max_distance <= 1``, returns a ticket that
        is already done. Otherwise the ticket enters the stream at
        shell 2. If what is left of it fits one range on a free
        placeable device, that device's batch is run here too, and the
        ticket is returned done; a device failure in it re-dispatches
        the batch to the device threads, and any other exception shuts
        the dispatcher down and is raised here. When no device is
        placeable the ticket waits for the next reinstatement, or is
        shed (``no_healthy_devices``) once the whole fleet stays dark
        past the grace window.
        """
        if max_distance < 0:
            raise ValueError("max_distance must be non-negative")
        if len(base_seed) != SEED_BYTES:
            raise ValueError(
                f"seed must be {SEED_BYTES} bytes, got {len(base_seed)}"
            )
        if len(target_digest) != self._executor.algo.digest_size:
            raise ValueError(
                f"{self.hash_name} digests are "
                f"{self._executor.algo.digest_size} bytes"
            )
        if deadline_seconds is not None and deadline_seconds < 0:
            raise ValueError("deadline_seconds must be non-negative")
        if isinstance(tenant, TenantContext):
            tenant_id = tenant.tenant_id
        else:
            tenant_id = tenant or DEFAULT_TENANT
        now = time.perf_counter()
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
                seed=bytes(base_seed),
                digest=bytes(target_digest),
                max_distance=max_distance,
                lane=self.policy.lane_of(max_distance, deadline_seconds),
                submitted_at=now,
                time_budget=time_budget,
                expiry=None if time_budget is None else now + time_budget,
                deadline=(
                    None if deadline_seconds is None else now + deadline_seconds
                ),
                cursor=ShellCursor(max_distance),
                tenant_id=tenant_id,
            )
            self._admitted += 1
            self._tenant_admitted[tenant_id] = (
                self._tenant_admitted.get(tenant_id, 0) + 1
            )
            self._ensure_threads_locked()
            match = self._hash_at_the_door_locked(request)
            settled = match is not None or max_distance <= 1
            inline: tuple[FleetDevice, tuple[BatchSlice, ...]] | None = None
            if settled:
                request.retired = True
            else:
                self._active.append(request)
                self._peak_depth = max(self._peak_depth, len(self._active))
                inline = self._inline_batch_locked(request)
                if inline is None:
                    self._wake.notify_all()
        if inline is not None:
            self._run_inline(*inline)
        elif not settled and self._pool is not None:
            self._pool.wake()
        if settled:
            self._finalize_result(
                request,
                timed_out=False,
                seed=None if match is None else match.seed,
                distance=None if match is None else match.distance,
            )
        return request

    def _hash_at_the_door_locked(
        self, request: ScheduledSearch
    ) -> SliceOutcome | None:
        """Scan shells 0 and 1 (up to ``max_distance``) on the calling
        thread and commit each as ``batch:`` counts it: shell 1 in
        ``batch_size`` batches, up to the one holding a match (lock
        held). The match, if one of them holds it."""
        for distance in range(min(request.max_distance, 1) + 1):
            size = binomial(SEED_BITS, distance)
            start = time.perf_counter()
            ((row, _rows),) = batcher.first_matches(
                self._executor.algo,
                self._executor.fixed_padding,
                [
                    BatchSlice(
                        request, distance, 0, size,
                        request.seed, request.digest, request.stop,
                    )
                ],
            )
            seconds = time.perf_counter() - start
            if row is None:
                self._count_locked(request, distance, size, seconds)
                continue
            counted = batcher.batch_end(distance, row, self.batch_size)
            self._count_locked(request, distance, counted, seconds)
            return SliceOutcome(
                key=request,
                distance=distance,
                rows=counted,
                seed=batcher.seed_at(request.seed, distance, row),
                seconds=seconds,
                rank=row,
            )
        return None

    def _inline_batch_locked(
        self, request: ScheduledSearch
    ) -> tuple[FleetDevice, tuple[BatchSlice, ...]] | None:
        """The batch ``submit`` runs on the calling thread (lock held):
        a free placeable device's, assembled as its thread would, when
        every remaining row of ``request`` fits one range there — all in
        shell 2 (a ``max_distance`` of 2) and within the device's room."""
        if request.max_distance != 2:
            return None
        for device in self.devices:
            if (
                device.placeable
                and not device.busy
                and request.remaining_work <= self.batch_size * device.workers
            ):
                batch = self._assemble_locked(device, time.perf_counter())
                return None if batch is None else (device, batch)
        return None

    def _run_inline(
        self, device: FleetDevice, batch: tuple[BatchSlice, ...]
    ) -> None:
        """Run a batch ``submit`` assembled, on the calling thread."""
        try:
            self._run_batch(device, batch)
        except Exception:
            self._shed_everything()
            raise

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
        batch) sheds everything (:meth:`_shed_everything`) and re-raises
        on this thread.
        """
        try:
            loop(*args)
        except Exception:
            self._shed_everything()
            raise

    def _shed_everything(self) -> None:
        """Close the dispatcher and shed every active request as
        ``shutdown``. Batches still running on other devices discard
        their results for the retired requests instead of committing to
        requests that were just shed."""
        with self._wake:
            self._closed = True
            self._drain = False
            orphans = list(self._active)
            for request in orphans:
                self._retire_locked(request)
            self._wake.notify_all()
            self._monitor_wake.notify_all()
        for request in orphans:
            self._finalize_shed(request, Refusal.SHUTDOWN)

    def _device_loop(self, device: FleetDevice) -> None:
        while True:
            expired: list[tuple[ScheduledSearch, str]] = []
            batch: tuple[BatchSlice, ...] | None = None
            with self._wake:
                if self._exit_locked():
                    return
                now = time.perf_counter()
                expired = self._expire_locked(now)
                if not expired:
                    batch = self._assemble_locked(device, now)
                    if batch is None:
                        # Expiry is clock-driven, so poll while requests
                        # are active; an idle fleet blocks until submit /
                        # kill / revive / close notifies.
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
            if batch is not None:
                self._run_batch(device, batch)

    def _expire_locked(
        self, now: float
    ) -> list[tuple[ScheduledSearch, str]]:
        """Deadline/budget expiry (lock held); ranges still running for
        an expired request are discarded when they return."""
        expired: list[tuple[ScheduledSearch, str]] = []
        for request in self._active:
            if request.deadline is not None and now > request.deadline:
                expired.append((request, "deadline"))
            elif request.expiry is not None and now > request.expiry:
                expired.append((request, "budget"))
        for request, _ in expired:
            self._retire_locked(request)
        return expired

    def _assemble_locked(
        self, device: FleetDevice, now: float
    ) -> tuple[BatchSlice, ...] | None:
        """Pull this device's next batch and mark the device busy until
        it is committed or failed (lock held). A busy device, run by
        another thread, pulls nothing."""
        if not device.placeable or device.busy:
            return None
        runnable = [
            r
            for r in self._active
            if device not in r.running and not r.cursor.exhausted
        ]
        if not runnable:
            return None
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
        room = self.batch_size * device.workers
        for request in self.policy.fill_order(
            runnable, primary, self._recent_tenant_rows
        ):
            if room <= 0:
                break
            taken = request.cursor.take(room)
            assert taken is not None, "runnable requests have ranks left"
            distance, lo, hi = taken
            request.running[device] = taken
            slices.append(
                BatchSlice(
                    key=request,
                    distance=distance,
                    lo=lo,
                    hi=hi,
                    seed=request.seed,
                    digest=request.digest,
                    stop=request.stop,
                )
            )
            room -= hi - lo
        device.busy = True
        device.recent_lanes.append(primary.lane)
        self._batches_by_lane[primary.lane] = (
            self._batches_by_lane.get(primary.lane, 0) + 1
        )
        return tuple(slices)

    def _run_batch(
        self, device: FleetDevice, batch: tuple[BatchSlice, ...]
    ) -> None:
        try:
            outcomes = device.run_batch(batch)
        except DeviceFailure:
            self._on_device_failure(device, batch)
            return
        self._commit(device, outcomes)

    # -- settlement -----------------------------------------------------

    def _commit(self, device: FleetDevice, outcomes: list[SliceOutcome]) -> None:
        """Free the device that hashed a batch, then commit each of its
        requests' ranges in rank order."""
        retired: list[tuple[ScheduledSearch, SliceOutcome | None]] = []
        with self._wake:
            device.busy = False
            total_rows = sum(outcome.rows for outcome in outcomes)
            if total_rows:
                total_seconds = max(
                    sum(outcome.seconds for outcome in outcomes), 1e-9
                )
                rate = total_rows / total_seconds
                # Weighted by rows: a few-row batch is mostly fixed cost,
                # and counting it as a full batch would drag the estimate
                # down; a batch its stop bytes emptied moves nothing.
                room = self.batch_size * device.workers
                weight = _THROUGHPUT_ALPHA * total_rows / room
                self._throughput = (
                    rate
                    if self._throughput is None
                    else self._throughput + weight * (rate - self._throughput)
                )
            for outcome in outcomes:
                request: ScheduledSearch = outcome.key  # type: ignore[assignment]
                if request.retired:
                    continue  # past its match, its budget or its deadline
                ranks = request.running.pop(device)
                bisect.insort(
                    request.hashed, (ranks, outcome), key=lambda entry: entry[0]
                )
                done, match = self._settle_locked(request)
                if done:
                    retired.append((request, match))
            if self._active or self._closed:
                # The rest of the stream, and a close, need the device
                # threads; a commit that empties an open fleet wakes none.
                self._wake.notify_all()
        for request, match in retired:
            self._finalize_result(
                request,
                timed_out=False,
                seed=None if match is None else match.seed,
                distance=None if match is None else match.distance,
            )

    def _settle_locked(
        self, request: ScheduledSearch
    ) -> tuple[bool, SliceOutcome | None]:
        """Commit, lowest rank first, the request's hashed ranges that no
        lower range waits for (lock held). Whether that retired it, and
        on what: a committed match, or every range committed without one
        (``None``)."""
        waiting = [ranks[:2] for ranks in request.running.values()]
        if request.cursor.floor is not None:
            waiting.append(request.cursor.floor)
        lowest = min(waiting, default=None)
        while request.hashed and (
            lowest is None or request.hashed[0][0][:2] < lowest
        ):
            (distance, lo, _hi), outcome = request.hashed.pop(0)
            rows = outcome.rows
            if outcome.rank is not None:
                rows = batcher.batch_end(distance, outcome.rank, self.batch_size) - lo
            self._count_locked(request, distance, rows, outcome.seconds)
            if outcome.seed is not None:
                self._retire_locked(request)
                return True, outcome
        if lowest is None and not request.hashed:
            self._retire_locked(request)
            return True, None
        return False, None

    def _count_locked(
        self, request: ScheduledSearch, distance: int, rows: int, seconds: float
    ) -> None:
        """Commit ``rows`` hashed rows of shell ``distance`` to the
        request and its tenant (lock held)."""
        request.remaining_work = max(0, request.remaining_work - rows)
        request.shell_hashed[distance] = (
            request.shell_hashed.get(distance, 0) + rows
        )
        request.shell_seconds[distance] = (
            request.shell_seconds.get(distance, 0.0) + seconds
        )
        self._recent_tenant_rows.append((request.tenant_id, rows))
        self._tenant_rows[request.tenant_id] = (
            self._tenant_rows.get(request.tenant_id, 0) + rows
        )

    def _retire_locked(self, request: ScheduledSearch) -> None:
        """Take a request out of the stream and set its stop byte:
        whatever of it is still running stops within eight rows and is
        discarded when it returns."""
        self._active.remove(request)
        request.retired = True
        request.stop.value = 1
        request.hashed.clear()
        if self._closed and not self._active:
            # A draining close waits for the stream to empty; the
            # monitor must not sleep out a heartbeat before it exits.
            self._monitor_wake.notify_all()

    def _on_device_failure(
        self, device: FleetDevice, batch: tuple[BatchSlice, ...]
    ) -> None:
        """A device raised mid-batch: replay the batch's ranges ahead of
        each cursor's unserved ones, and note a quarantine."""
        with self._wake:
            device.busy = False
            for piece in batch:
                request: ScheduledSearch = piece.key  # type: ignore[assignment]
                if request.retired:
                    continue
                del request.running[device]
                request.cursor.push_back(piece.distance, piece.lo, piece.hi)
                self._redispatched += 1
            self._note_quarantine_locked(device)
            self._wake.notify_all()

    def _note_quarantine_locked(self, device: FleetDevice) -> None:
        """Count a quarantine episode once, when the breaker first opens."""
        if device.breaker.state != "closed" and not device.was_quarantined:
            device.was_quarantined = True
            self._quarantines += 1

    # -- monitor --------------------------------------------------------

    def _monitor_loop(self) -> None:
        with self._wake:
            states = [device.breaker.state for device in self.devices]
        while True:
            to_probe: list[FleetDevice] = []
            with self._wake:
                if self._exit_locked():
                    return
                # With no request active and every breaker closed, the
                # heartbeat only has to notice a device dying without
                # work, so it runs at a fraction of the rate; kill /
                # revive / close still wake the monitor at once.
                idle = not self._active and all(
                    d.placeable for d in self.devices
                )
                self._monitor_wake.wait(
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
                    elif state == "closed" and not device.busy:
                        # Idle healthy devices heartbeat too, so a dead
                        # device without work is still detected.
                        to_probe.append(device)
            for device in to_probe:
                device.probe()
            shed: list[ScheduledSearch] = []
            reinstated = False
            with self._wake:
                for device in to_probe:
                    state = device.breaker.state
                    if state == "closed" and device.was_quarantined:
                        device.was_quarantined = False
                        self._reinstatements += 1
                        reinstated = True
                    elif state != "closed":
                        self._note_quarantine_locked(device)
                now = time.perf_counter()
                if any(d.placeable for d in self.devices):
                    self._no_healthy_since = None
                elif self._no_healthy_since is None:
                    self._no_healthy_since = now
                elif now - self._no_healthy_since > self._no_device_grace:
                    shed = [r for r in self._active if not r.running]
                    for request in shed:
                        self._retire_locked(request)
                # The device threads wake only for what they act on: a
                # heartbeat that changed nothing leaves them asleep.
                was, states = states, [d.breaker.state for d in self.devices]
                if reinstated or shed or states != was:
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
                "batches": sum(d.batches for d in self.devices),
                "shared_batches": sum(d.shared_batches for d in self.devices),
                "batches_by_lane": dict(self._batches_by_lane),
                "throughput": self._throughput,
                "redispatched_chunks": self._redispatched,
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
            self._monitor_wake.notify_all()
        for thread in threads:
            thread.join()
        with self._wake:
            leftovers = list(self._active)
            for request in leftovers:
                self._retire_locked(request)
        for request in leftovers:
            self._finalize_shed(request, Refusal.SHUTDOWN)

    def __enter__(self) -> "FleetScheduler":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
