"""Admission control and lane ordering for the search scheduler.

Three decisions live here, kept as pure functions of explicit state so
they are unit-testable without threads or a device:

* **Admission** — refuse a request outright when the queue is full
  (``saturated``) or when, at the currently observed device throughput,
  its deadline cannot cover even the cheapest useful search — the
  distance<=1 shells (``deadline_unmeetable``). Admission is deliberately
  conservative: it sheds only the provably hopeless; everything tighter
  is caught at run time by deadline-expiry shedding in the dispatcher.
* **Lane assignment** — requests with a client deadline ride the
  ``express`` lane; the rest split into ``shallow`` / ``deep`` by
  search depth. Lanes exist so one class of traffic can be ordered,
  capped, and measured against the others.
* **Picking** — between lanes, earliest-deadline-first (a lane's
  deadline is its most urgent request's; lanes without deadlines rank
  by their cheapest request, so shallow work naturally outranks deep
  backlog). Within a lane, shortest-expected-remaining-work-first with
  FIFO tie-break. A fairness cap bounds any lane's share of recent
  device batches while other lanes have work waiting, so a burst of
  urgent deep searches cannot monopolize the device and starve the
  shallow lane (nor vice versa).
* **Aging** — the fairness cap bounds lane *share*, but a deep request
  with pathological luck could still lose every pick inside its share
  window. :meth:`SchedulingPolicy.apply_aging` promotes any request
  queued longer than ``aging_seconds`` into the express lane and marks
  it ``aged``; aged requests outrank every lane key and every
  within-lane pick, so a starving request's wait is bounded by the
  aging threshold plus one batch of each lane ahead of it.
* **Tenancy** — with a :class:`~repro.tenancy.registry.TenantRegistry`
  attached, admission additionally charges the request's tenant's
  token-bucket lookup budget (dry bucket -> typed
  ``Refusal.TENANT_QUOTA``), and picking enforces *weighted fair share*
  between tenants: a tenant whose share of recently served device rows
  exceeds its weight fraction — while other tenants have runnable work
  waiting — is passed over until the window rebalances. Aged requests
  are exempt (starvation freedom outranks share enforcement).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

from repro._bitutils import SEED_BITS
from repro.core.complexity import shell_size
from repro.refusals import Refusal
from repro.tenancy.context import DEFAULT_TENANT
from repro.tenancy.registry import TenantRegistry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.fleet.scheduler import ScheduledSearch

__all__ = ["PolicyConfig", "SchedulingPolicy", "EXPRESS_LANE", "SHALLOW_LANE", "DEEP_LANE"]

EXPRESS_LANE = "express"
SHALLOW_LANE = "shallow"
DEEP_LANE = "deep"


@dataclass(frozen=True)
class PolicyConfig:
    """Tunables of the scheduling policy."""

    #: Requests searching to at least this distance go to the deep lane.
    deep_distance: int = 3
    #: Maximum share of the recent device batches one lane may take
    #: while another lane has runnable work.
    fairness_cap: float = 0.75
    #: Sliding window (in device batches) over which lane shares are
    #: measured for the fairness cap.
    fairness_window: int = 64
    #: Safety factor on the admission deadline check; >1 sheds earlier.
    shed_slack: float = 1.0
    #: Queue age (seconds) past which a request is promoted into the
    #: express lane and picked ahead of everything else (starvation-free
    #: aging). ``None`` disables aging.
    aging_seconds: float | None = 30.0

    def __post_init__(self) -> None:
        if self.deep_distance < 1:
            raise ValueError("deep_distance must be positive")
        if not 0.0 < self.fairness_cap <= 1.0:
            raise ValueError("fairness_cap must be in (0, 1]")
        if self.fairness_window < 1:
            raise ValueError("fairness_window must be positive")
        if self.shed_slack <= 0:
            raise ValueError("shed_slack must be positive")
        if self.aging_seconds is not None and self.aging_seconds <= 0:
            raise ValueError("aging_seconds must be positive (or None)")


class SchedulingPolicy:
    """Deterministic admission + ordering rules the dispatcher consults."""

    def __init__(
        self,
        config: PolicyConfig | None = None,
        tenants: TenantRegistry | None = None,
    ):
        self.config = config if config is not None else PolicyConfig()
        #: Optional tenant registry: admission charges its token buckets
        #: and picking reads its fair-share weights. ``None`` keeps the
        #: policy exactly as tenant-blind as it was before tenancy.
        self.tenants = tenants
        #: Cheapest useful search: shell 0 plus shell 1.
        self._min_cover_ranks = 1 + shell_size(1, SEED_BITS)

    # -- lanes ----------------------------------------------------------

    def lane_of(self, max_distance: int, deadline_seconds: float | None) -> str:
        """Which lane a request rides."""
        if deadline_seconds is not None:
            return EXPRESS_LANE
        if max_distance < self.config.deep_distance:
            return SHALLOW_LANE
        return DEEP_LANE

    # -- admission ------------------------------------------------------

    def admission_shed_reason(
        self,
        *,
        queue_depth: int,
        max_queue: int,
        deadline_seconds: float | None,
        throughput: float | None,
        tenant_id: str | None = None,
    ) -> Refusal | None:
        """Why a new request must be shed, or ``None`` to admit.

        The deadline check needs an observed device throughput; before
        the first batches have been measured (and with no hint primed)
        deadline requests are admitted and left to run-time expiry.
        With a tenant registry attached, the tenant's token-bucket
        lookup budget is charged last (so a saturated queue never eats
        the tenant's tokens); a dry bucket sheds ``TENANT_QUOTA``.
        """
        if queue_depth >= max_queue:
            return Refusal.SATURATED
        if deadline_seconds is not None and throughput is not None and throughput > 0:
            min_cover_seconds = self._min_cover_ranks / throughput
            if min_cover_seconds * self.config.shed_slack > deadline_seconds:
                return Refusal.DEADLINE_UNMEETABLE
        if self.tenants is not None and not self.tenants.try_admit(tenant_id):
            return Refusal.TENANT_QUOTA
        return None

    # -- aging ----------------------------------------------------------

    def apply_aging(
        self, runnable: Sequence["ScheduledSearch"], now: float
    ) -> int:
        """Promote requests queued past ``aging_seconds`` into express.

        Returns how many requests were promoted by this call. Promotion
        is one-way: an aged request keeps its ``aged`` flag (and its
        express-lane ride) until it retires, so one slow request cannot
        oscillate between lanes.
        """
        threshold = self.config.aging_seconds
        if threshold is None:
            return 0
        promoted = 0
        for request in runnable:
            if getattr(request, "aged", False):
                continue
            if now - request.submitted_at >= threshold:
                request.aged = True
                request.lane = EXPRESS_LANE
                promoted += 1
        return promoted

    # -- tenant fair share ----------------------------------------------

    def over_share_tenants(
        self,
        runnable: Sequence["ScheduledSearch"],
        recent_tenant_rows: Iterable[tuple[str, int]],
    ) -> frozenset[str]:
        """Tenants currently over their weighted share of device rows.

        Measured over the recent-rows window, among the tenants that
        have runnable work *right now*: tenant ``t`` is over-share when
        its fraction of recently served rows exceeds
        ``weight(t) / sum(weights of present tenants)``. With fewer than
        two tenants present there is no one to be fair *to*, and if the
        arithmetic ever marks every present tenant over (degenerate
        windows), enforcement is a no-op — fair share throttles, it
        never halts the device.
        """
        if self.tenants is None:
            return frozenset()
        present = {
            getattr(r, "tenant_id", DEFAULT_TENANT) for r in runnable
        }
        if len(present) < 2:
            return frozenset()
        rows_by_tenant: dict[str, int] = {}
        for tenant_id, rows in recent_tenant_rows:
            if tenant_id in present:
                rows_by_tenant[tenant_id] = (
                    rows_by_tenant.get(tenant_id, 0) + rows
                )
        total_rows = sum(rows_by_tenant.values())
        if total_rows <= 0:
            return frozenset()
        total_weight = sum(self.tenants.weight_of(t) for t in present)
        over = frozenset(
            tenant_id
            for tenant_id in present
            if rows_by_tenant.get(tenant_id, 0) / total_rows
            > self.tenants.weight_of(tenant_id) / total_weight
        )
        if over == present:
            return frozenset()
        return over

    def _tenant_eligible(
        self,
        runnable: Sequence["ScheduledSearch"],
        recent_tenant_rows: Iterable[tuple[str, int]],
    ) -> list["ScheduledSearch"]:
        """Runnable requests fair share allows to lead the next batch.

        Aged requests stay eligible regardless of their tenant's share —
        starvation freedom outranks share enforcement.
        """
        over = self.over_share_tenants(runnable, recent_tenant_rows)
        if not over:
            return list(runnable)
        eligible = [
            r
            for r in runnable
            if getattr(r, "aged", False)
            or getattr(r, "tenant_id", DEFAULT_TENANT) not in over
        ]
        return eligible if eligible else list(runnable)

    # -- picking --------------------------------------------------------

    @staticmethod
    def _lane_key(requests: Sequence["ScheduledSearch"]) -> tuple:
        aged = [
            r.submitted_at for r in requests if getattr(r, "aged", False)
        ]
        if aged:
            # A starving request outranks every deadline: its lane goes
            # first, oldest promotion first.
            return (-1, min(aged))
        deadlines = [r.deadline for r in requests if r.deadline is not None]
        if deadlines:
            return (0, min(deadlines))
        return (1, min(r.remaining_work for r in requests))

    def lane_order(
        self, runnable: Sequence["ScheduledSearch"], recent_lanes: Iterable[str]
    ) -> list[str]:
        """Lanes with runnable work, most-preferred first (EDF + cap)."""
        lanes: dict[str, list["ScheduledSearch"]] = {}
        for request in runnable:
            lanes.setdefault(request.lane, []).append(request)
        order = sorted(lanes, key=lambda lane: self._lane_key(lanes[lane]))
        if len(order) < 2:
            return order
        recent = list(recent_lanes)
        if recent:
            share = recent.count(order[0]) / len(recent)
            if share >= self.config.fairness_cap:
                # The preferred lane is over its share while others
                # wait: rotate it to the back for this batch.
                order = order[1:] + order[:1]
        return order

    def pick(
        self,
        runnable: Sequence["ScheduledSearch"],
        recent_lanes: Iterable[str],
        recent_tenant_rows: Iterable[tuple[str, int]] = (),
    ) -> "ScheduledSearch":
        """The request whose range the next device batch starts with.

        Tenant fair share filters first (an over-share tenant cannot
        lead a batch while under-share tenants wait), then the lane
        order and within-lane rules run unchanged on what remains.
        """
        if not runnable:
            raise ValueError("pick() needs at least one runnable request")
        eligible = self._tenant_eligible(runnable, recent_tenant_rows)
        lane = self.lane_order(eligible, recent_lanes)[0]
        pool = [r for r in eligible if r.lane == lane]
        return min(
            pool,
            key=lambda r: (
                not getattr(r, "aged", False),
                r.remaining_work,
                r.seq,
            ),
        )

    def fill_order(
        self,
        runnable: Sequence["ScheduledSearch"],
        primary: "ScheduledSearch",
        recent_tenant_rows: Iterable[tuple[str, int]] = (),
    ) -> list["ScheduledSearch"]:
        """Order in which requests may top up the rest of the batch.

        The batch belongs to ``primary``; leftover lanes fill by urgency
        (deadline first), then cheapest remaining work, then FIFO — the
        continuous-batching path that lets many small shells ride one
        device batch. Requests of over-share tenants top up last: they
        still ride spare capacity (work conservation), but never ahead
        of an under-share tenant's ranges.
        """
        over = self.over_share_tenants(runnable, recent_tenant_rows)
        rest = [r for r in runnable if r is not primary]
        rest.sort(
            key=lambda r: (
                not getattr(r, "aged", False),
                getattr(r, "tenant_id", DEFAULT_TENANT) in over,
                r.deadline if r.deadline is not None else float("inf"),
                r.remaining_work,
                r.seq,
            )
        )
        return [primary] + rest
