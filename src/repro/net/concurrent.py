"""Concurrent CA front end: many clients, one serving path.

The capacity model (:mod:`repro.analysis.workload`) predicts what a CA
can sustain; this module is the serving layer that actually does it:
per-client serialization (two in-flight searches for the same identity
make no sense — the second would race the RA update), admission control,
and service metrics the operator can read off.

Every request takes the one path: admission at the front door, S_init
read from the image store on the submitting thread, one dispatcher
ticket (a :class:`~repro.fleet.engine.FleetSearchEngine` — a ``fleet:``
or ``sched:`` engine), and one settle function that does
the typed-refusal accounting, issues the key, counts the
:class:`~repro.engines.result.SearchResult`'s seeds and shells and
builds the :class:`~repro.net.messages.AuthenticationResult`. The
dispatcher hashes shell 0 — S_init itself — as it admits the ticket, so
a request answered there (the common depth-0 authentication) settles on
the submitting thread before :meth:`ConcurrentCAServer.submit` returns;
any other ticket joins the continuous-batching work stream, where many
requests share the devices and client deadlines are honored with EDF
lanes and shedding. What the
dispatcher did is not re-summed per request: :class:`ServerMetrics`
reads its own counters.
:meth:`ConcurrentCAServer.handle_handshake` / ``handle_digest`` are the
same path behind the Figure 1 message surface.
"""

from __future__ import annotations

import threading
import time
from collections.abc import Callable
from concurrent.futures import Future
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.authentication import CertificateAuthority
from repro.engines.result import SearchResult
from repro.net.errors import ServerBusy, ServerClosed
from repro.net.messages import (
    AuthenticationResult,
    DigestSubmission,
    HandshakeRequest,
    HandshakeResponse,
)
from repro.refusals import Refusal, RequestShed
from repro.tenancy.context import DEFAULT_TENANT, namespaced_key
from repro.tenancy.ledger import TenantLedger
from repro.tenancy.registry import TenantRegistry

if TYPE_CHECKING:
    from repro.fleet.engine import FleetSearchEngine
    from repro.fleet.scheduler import ScheduledSearch

__all__ = ["ServerMetrics", "ConcurrentCAServer"]

#: How long ``handle_digest`` waits for a submitted request to settle
#: (a search is bounded by its own time budget long before this).
REQUEST_TIMEOUT_SECONDS = 300.0

#: Every counter, in snapshot order — the one place they are declared.
_COUNTERS = (
    "submitted",
    "completed",
    "authenticated",
    "failed",
    "rejected_busy",
    "rejected_duplicate",
    "total_search_seconds",
    # Engine-level telemetry read off each unified search result:
    # candidate seeds hashed and Hamming shells completed.
    "seeds_hashed",
    "shells_completed",
    # Requests shed (typed refusals), primary-request preemptions, the
    # deepest front-door queue observed, and chunks replayed on a
    # survivor after a device failure.
    "shed",
    "preempted",
    "queue_depth_peak",
    "redispatched",
    # Requests refused because their tenant's admission budget (token
    # bucket) was exhausted.
    "shed_tenant_quota",
    # Durability telemetry (zero unless the enrollment store is a
    # WAL-backed :class:`~repro.durability.store.DurableImageStore`):
    # enrollments acknowledged durable over the wire, records recovered
    # at startup, and how long that recovery took.
    "enrollments",
    "recovered_records",
    "recovery_seconds",
)

#: Counters the door does not keep: read off the served dispatcher's
#: ``snapshot()`` under these keys.
_DISPATCHER_KEYS = {
    "preempted": "preempted",
    "redispatched": "redispatched_chunks",
}
_READ = frozenset(_DISPATCHER_KEYS)

#: Counters :meth:`ServerMetrics.record` may increment by name. The rest
#: are read (``_READ``) or have their own write path (``search_seconds``
#: / ``queue_depth`` / ``record_shed`` / ``record_enrollment`` /
#: ``record_recovery``).
_RECORDABLE = frozenset(_COUNTERS) - _READ - {
    "total_search_seconds",
    "shed",
    "queue_depth_peak",
    "shed_tenant_quota",
    "enrollments",
    "recovered_records",
    "recovery_seconds",
}


class ServerMetrics:
    """Operational counters (thread-safe snapshots via the server).

    One attribute per counter the door keeps, plus ``shed_reasons``
    (per-reason shed counts, written only by :meth:`record_shed`, which
    also increments ``shed`` — the two can never drift apart) and
    ``tenants`` (the per-tenant ledger fed by the same ``record`` /
    ``record_shed`` calls). The other two names are read at snapshot
    time from where their events happen, ``dispatcher``'s own
    ``snapshot()``; without a dispatcher they read zero.
    """

    def __init__(self, dispatcher: FleetSearchEngine | None = None) -> None:
        for name in _COUNTERS:
            if name not in _READ:
                setattr(self, name, 0.0 if name.endswith("_seconds") else 0)
        self.shed_reasons: dict[str, int] = {}
        self.tenants = TenantLedger()
        self._lock = threading.Lock()
        self._dispatcher = dispatcher

    def _read(self) -> dict[str, int]:
        """The counters the door does not keep, as of now."""
        fleet = (
            self._dispatcher.scheduler.snapshot()
            if self._dispatcher is not None
            else {}
        )
        return {name: fleet.get(key, 0) for name, key in _DISPATCHER_KEYS.items()}

    def record(
        self,
        *,
        search_seconds: float = 0.0,
        queue_depth: int = 0,
        tenant_id: str | None = None,
        **increments: int,
    ) -> None:
        """Atomically increment counters — the one write path callers use.

        ``increments`` names counters to add to; an unknown name is a
        ``TypeError``. ``search_seconds`` accumulates into
        ``total_search_seconds``. ``queue_depth`` is a gauge
        observation, not an increment: the peak-so-far is kept
        (max-merge), so callers report the depth they saw and the
        snapshot exposes the high-water mark. ``tenant_id`` mirrors the
        per-request counters into the per-tenant ledger.

        Sheds are deliberately *not* recordable here: every shed goes
        through :meth:`record_shed`, which keeps the ``shed`` total and
        the per-reason counts in lockstep.
        """
        unknown = increments.keys() - _RECORDABLE
        if unknown:
            raise TypeError(
                f"record() got an unexpected counter {min(unknown)!r}"
            )
        with self._lock:
            for name, amount in increments.items():
                setattr(self, name, getattr(self, name) + amount)
            self.total_search_seconds += search_seconds
            if queue_depth > self.queue_depth_peak:
                self.queue_depth_peak = queue_depth
        if tenant_id is not None:
            count = increments.get
            self.tenants.record(
                tenant_id,
                submitted=count("submitted", 0),
                completed=count("completed", 0),
                authenticated=count("authenticated", 0),
                failed=count("failed", 0),
                search_seconds=search_seconds,
                latency_seconds=(
                    search_seconds if count("completed", 0) else None
                ),
            )

    def record_shed(
        self,
        reason: str,
        *,
        failed: int = 0,
        search_seconds: float = 0.0,
        tenant_id: str | None = None,
    ) -> None:
        """The one write path for sheds: total + per-reason, atomically.

        Every shed increments ``shed`` and ``shed_reasons[reason]`` in
        the same critical section, so ``sum(shed_reasons.values()) ==
        shed`` holds at every instant. The reason-specific convenience
        counter ``shed_tenant_quota`` is derived here too, never written
        directly by callers.
        """
        with self._lock:
            self.shed += 1
            self.shed_reasons[reason] = self.shed_reasons.get(reason, 0) + 1
            if reason == Refusal.TENANT_QUOTA.reason:
                self.shed_tenant_quota += 1
            self.failed += failed
            self.total_search_seconds += search_seconds
        if tenant_id is not None:
            self.tenants.record(
                tenant_id,
                shed=1,
                failed=failed,
                search_seconds=search_seconds,
                quota_hits=1 if reason == Refusal.TENANT_QUOTA.reason else 0,
            )

    def record_enrollment(self) -> None:
        """One enrollment acknowledged (durably, when the store has a WAL)."""
        with self._lock:
            self.enrollments += 1

    def record_recovery(self, records: int, seconds: float) -> None:
        """Startup recovery outcome (records replayed, wall-clock cost)."""
        with self._lock:
            self.recovered_records = records
            self.recovery_seconds = seconds

    def snapshot(self) -> dict[str, float]:
        """A consistent copy of the counters, in declaration order."""
        read = self._read()
        with self._lock:
            return {
                name: read[name] if name in read else getattr(self, name)
                for name in _COUNTERS
            }

    def shed_breakdown(self) -> dict[str, int]:
        """Per-reason shed counts (sums exactly to ``snapshot()['shed']``)."""
        with self._lock:
            return dict(self.shed_reasons)

    def tenant_snapshot(self) -> dict[str, dict[str, float]]:
        """Per-tenant counters (see :class:`~repro.tenancy.ledger.TenantLedger`)."""
        return self.tenants.snapshot()


def _tenant_kwargs(tenant: str) -> dict[str, str]:
    """``tenant_id=`` for authority calls, omitted for the default tenant
    so authority doubles (tests, adapters) predating tenancy keep working."""
    return {} if tenant == DEFAULT_TENANT else {"tenant_id": tenant}


@dataclass(frozen=True)
class _Request:
    """One admitted request, from the front door to its settlement."""

    client_id: str
    digest: bytes
    deadline_seconds: float | None
    tenant: str
    admitted_at: float

    def elapsed(self) -> float:
        """Seconds since admission (what ``search_seconds`` reports)."""
        return time.perf_counter() - self.admitted_at


class ConcurrentCAServer:
    """Bounded-concurrency authentication service over one authority."""

    def __init__(
        self,
        authority: CertificateAuthority,
        max_queue: int = 64,
        scheduler: FleetSearchEngine | None = None,
        tenants: TenantRegistry | None = None,
    ):
        if max_queue < 1:
            raise ValueError("max_queue must be positive")
        if scheduler is None:
            scheduler = authority.search_service.engine
        if not hasattr(scheduler, "submit"):
            raise TypeError(
                "ConcurrentCAServer serves on a dispatcher (a fleet: or "
                f"sched: engine), not {type(scheduler).__name__}"
            )
        self.authority = authority
        self.max_queue = max_queue
        #: The tenant registry every admission decision consults. Without
        #: one, a quota-free registry is created: every request resolves
        #: to the default tenant and behaves exactly as before tenancy.
        self.tenants = tenants if tenants is not None else TenantRegistry()
        #: The dispatcher every admitted request becomes a ticket of:
        #: the one passed in, else the authority's own search engine.
        #: Either way this server closes it.
        self.scheduler = scheduler
        # Share one registry with the dispatcher's admission policy: it
        # is the one place a token bucket is charged, once per
        # submission and last, so a saturated queue never spends a
        # token. A policy that already has its own registry keeps it.
        policy = scheduler.scheduler.policy
        if policy.tenants is None:
            policy.tenants = self.tenants
        #: False-authentication tripwire of a verifying authority: pins
        #: each submitted M1 so key issuance can re-verify the found seed.
        self._record_digest = getattr(authority, "record_digest", None)
        # Reentrant on purpose: a SIGTERM handler (which Python runs on
        # the main thread, possibly while submit() holds this lock) that
        # reaches close() must not deadlock against the interrupted
        # frame. With an RLock the nested acquire succeeds and close()
        # only flips the flag; the interrupted submit then observes
        # _closed and refuses typed.
        self._lock = threading.RLock()
        self._in_flight_clients: set[str] = set()
        self._pending = 0
        self.metrics = ServerMetrics(scheduler)
        self._closed = False

    # -- the message surface (Figure 1) -------------------------------------

    def handle_handshake(self, request: HandshakeRequest) -> HandshakeResponse:
        """Handshake: the PUF address information, from the namespace the
        wire tenant selects."""
        return HandshakeResponse.from_challenge(
            self.authority.issue_challenge(
                request.client_id, tenant_id=request.tenant
            )
        )

    def handle_digest(self, submission: DigestSubmission) -> AuthenticationResult:
        """Digest submission: tripwire, :meth:`submit`, wait for the reply.

        Raises what :meth:`submit` raises and what its future carries.
        """
        if self._record_digest is not None:
            self._record_digest(
                submission.client_id, submission.digest, tenant_id=submission.tenant
            )
        future = self.submit(
            submission.client_id,
            submission.digest,
            deadline_seconds=submission.deadline_seconds,
            tenant_id=submission.tenant,
        )
        return future.result(timeout=REQUEST_TIMEOUT_SECONDS)

    # -- the request path ---------------------------------------------------

    def submit(
        self,
        client_id: str,
        digest: bytes,
        deadline_seconds: float | None = None,
        tenant_id: str | None = None,
    ) -> Future:
        """Queue one authentication; returns a Future[AuthenticationResult].

        Where a request is accounted — the one rule: a *refusal* raises
        from here and the request was never ``submitted``; everything
        that becomes of an *admitted* request arrives through the
        future, and ``submitted == completed + failed + pending``.

        Refusals (:class:`~repro.refusals.Refusal`):
        :class:`~repro.net.errors.ServerClosed` once the server is shut
        down; :class:`~repro.net.errors.ServerBusy` from admission
        control (``DOOR_SATURATED`` -> ``rejected_busy``,
        ``DUPLICATE_IN_FLIGHT`` -> ``rejected_duplicate``);
        :class:`~repro.refusals.RequestShed` with a typed reason, counted
        under ``shed`` — an exhausted tenant budget (``tenant_quota``),
        an unmeetable deadline, or saturated lanes.

        Through the future: the reply; a runtime shed (expired deadline,
        shutdown, no healthy device — ``shed`` and ``failed``); and any
        other failure, counted ``failed`` — a client that is not enrolled
        (the store's ``KeyError``), a digest the search cannot parse, a
        backend error.

        ``deadline_seconds`` is the client's own latency bound: the
        dispatcher routes the request into the express lane and arms
        deadline shedding.

        ``tenant_id`` attributes the request to a registered tenant
        (``None`` rides the default tenant): it selects the store
        namespace the enrollment record is resolved in, charges the
        tenant's admission budget, and keys the per-tenant telemetry.
        """
        tenant = self.tenants.resolve(tenant_id).tenant_id
        in_flight_key = namespaced_key(tenant, client_id)
        with self._lock:
            if self._closed:
                raise ServerClosed("server is closed")
            if self._pending >= self.max_queue:
                self.metrics.record(rejected_busy=1)
                raise ServerBusy(
                    "server saturated; retry later", Refusal.DOOR_SATURATED
                )
            if in_flight_key in self._in_flight_clients:
                self.metrics.record(rejected_duplicate=1)
                raise ServerBusy(
                    f"client {client_id!r} already has a search in flight",
                    Refusal.DUPLICATE_IN_FLIGHT,
                )
            self._in_flight_clients.add(in_flight_key)
            self._pending += 1
            queue_depth = self._pending
        request = _Request(
            client_id, digest, deadline_seconds, tenant, time.perf_counter()
        )
        try:
            ticket = self._ticket(request)
        except RequestShed as exc:
            # Refused at the door: observable as a typed shed, not a
            # failed search.
            self._release(in_flight_key)
            self.metrics.record_shed(exc.reason, tenant_id=tenant)
            raise
        except BaseException:
            self._release(in_flight_key)
            raise
        # Counted before the settle is attached: a ticket may already be
        # done, and its settlement must never be counted ahead of it.
        self.metrics.record(
            submitted=1, queue_depth=queue_depth, tenant_id=tenant
        )
        future: Future = Future()
        future.set_running_or_notify_cancel()
        future.add_done_callback(lambda _f: self._release(in_flight_key))
        if isinstance(ticket, Exception):
            # Not a refusal: the request was admitted and cannot be
            # served, so it is settled (and counted failed) like any
            # other search that raised.
            _transfer(future, self._settle, request, _raiser(ticket))
        else:
            ticket.add_done_callback(
                lambda done: _transfer(future, self._settle, request, done.result)
            )
        return future

    def _ticket(self, request: _Request) -> ScheduledSearch | Exception:
        """Read S_init at the door and make the request a dispatcher
        ticket, or return what kept it from becoming one. A refusal
        raises."""
        service = self.authority.search_service
        try:
            seed = self.authority.enrolled_seed(
                request.client_id, **_tenant_kwargs(request.tenant)
            )
            return self.scheduler.submit(
                seed,
                request.digest,
                service.max_distance,
                time_budget=service.time_threshold,
                deadline_seconds=request.deadline_seconds,
                client_id=request.client_id,
                tenant=request.tenant,
            )
        except RequestShed:
            raise
        except Exception as exc:
            return exc

    def _settle(
        self, request: _Request, search: Callable[[], SearchResult]
    ) -> AuthenticationResult:
        """Turn one search outcome into the reply — for every request.

        ``search()`` returns the dispatcher's result or raises what it
        failed with; either way the request is accounted for here, so
        ``submitted == completed + failed + pending`` stays true.
        ``search_seconds`` runs from admission to settlement.
        """
        tenant = request.tenant
        try:
            result = search()
        except RequestShed as exc:
            self.metrics.record_shed(
                exc.reason,
                failed=1,
                search_seconds=request.elapsed(),
                tenant_id=tenant,
            )
            raise
        except Exception:
            self.metrics.record(
                failed=1, search_seconds=request.elapsed(), tenant_id=tenant
            )
            raise
        public_key = None
        if result.found:
            assert result.seed is not None
            public_key = self.authority.issue_public_key(
                request.client_id, result.seed, **_tenant_kwargs(tenant)
            )
        self.metrics.record(
            completed=1,
            authenticated=1 if result.found else 0,
            search_seconds=request.elapsed(),
            seeds_hashed=result.seeds_hashed,
            shells_completed=len(result.shells),
            tenant_id=tenant,
        )
        return AuthenticationResult(
            client_id=request.client_id,
            authenticated=result.found,
            distance=result.distance,
            public_key=public_key,
            search_seconds=result.elapsed_seconds,
            timed_out=result.timed_out,
        )

    def _release(self, in_flight_key: str) -> None:
        with self._lock:
            self._in_flight_clients.discard(in_flight_key)
            self._pending -= 1

    # -- lifecycle ------------------------------------------------------------

    def close(self, wait: bool = True) -> None:
        """Stop accepting work and settle every queued request.

        Deterministic and idempotent. New submissions raise
        :class:`~repro.net.errors.ServerClosed` from the moment the close
        begins. With ``wait=True`` (default) queued and in-flight
        searches drain to completion; with ``wait=False`` queued work is
        shed with reason ``"shutdown"`` — either way every outstanding
        future settles before this method returns. Closing the
        dispatcher joins its device threads.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self.scheduler.close(drain=wait)

    def __enter__(self) -> "ConcurrentCAServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _transfer(future: Future, fn, *args) -> None:
    """Hand the outcome of ``fn(*args)`` — value or exception — to ``future``."""
    try:
        future.set_result(fn(*args))
    except BaseException as exc:
        future.set_exception(exc)


def _raiser(exc: Exception) -> Callable[[], SearchResult]:
    """A ``search()`` for :meth:`ConcurrentCAServer._settle` that fails
    with what kept the search from starting."""

    def search() -> SearchResult:
        raise exc

    return search
