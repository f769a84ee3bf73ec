"""The parts the deadline-aware continuous-batching dispatcher is made of.

The layer between the protocol front end and the execution stack:
concurrent authentication requests are decomposed into shell chunks
(:mod:`~repro.sched.units`), admitted and ordered by deadline-aware
lanes with a fairness cap (:mod:`~repro.sched.policy`), and served
through a fused batcher that packs many clients' candidates into each
device batch (:mod:`~repro.sched.batcher`); each admitted request is one
ticket (:mod:`~repro.sched.scheduler`). The dispatcher that runs them is
:class:`repro.fleet.dispatcher.FleetScheduler` — the ``sched:`` engine
spec is its one-device case.

Quick start::

    from repro.engines import build_engine

    engine = build_engine("sched:sha3-256,bs=16384")
    ticket = engine.submit(seed, digest, 4, deadline_seconds=5.0)
    result = ticket.result()
"""

from __future__ import annotations

from repro.sched.batcher import BatchSlice, ContinuousBatcher, SliceOutcome, UnitCursor
from repro.sched.errors import (
    SHED_DEADLINE_EXPIRED,
    SHED_DEADLINE_UNMEETABLE,
    SHED_NO_DEVICES,
    SHED_SATURATED,
    SHED_SHUTDOWN,
    RequestShed,
    SchedulerClosed,
    SchedulerError,
)
from repro.sched.policy import (
    DEEP_LANE,
    EXPRESS_LANE,
    SHALLOW_LANE,
    PolicyConfig,
    SchedulingPolicy,
)
from repro.sched.scheduler import ScheduledSearch
from repro.sched.units import (
    DEFAULT_CHUNK_RANKS,
    WorkUnit,
    decompose_search,
    expected_work,
)

__all__ = [
    "WorkUnit",
    "decompose_search",
    "expected_work",
    "DEFAULT_CHUNK_RANKS",
    "PolicyConfig",
    "SchedulingPolicy",
    "EXPRESS_LANE",
    "SHALLOW_LANE",
    "DEEP_LANE",
    "UnitCursor",
    "BatchSlice",
    "SliceOutcome",
    "ContinuousBatcher",
    "ScheduledSearch",
    "SchedulerError",
    "SchedulerClosed",
    "RequestShed",
    "SHED_SATURATED",
    "SHED_DEADLINE_UNMEETABLE",
    "SHED_DEADLINE_EXPIRED",
    "SHED_SHUTDOWN",
    "SHED_NO_DEVICES",
]
