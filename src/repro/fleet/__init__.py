"""The dispatcher: continuous batching over one or more health-checked devices.

A search becomes shell chunks (:mod:`~repro.fleet.units`) and one ticket
(:mod:`~repro.fleet.scheduler`), admitted and ordered by deadline-aware
lanes (:mod:`~repro.fleet.policy`) and fused with other clients' chunks
into each device batch (:mod:`~repro.fleet.batcher`). The dispatcher
places those chunks on one or several modeled device backends,
health-checks them with heartbeat probes and per-device circuit
breakers, re-dispatches chunks orphaned by a device failure onto
survivors (preserving the byte-equivalence contract), and hedges
straggler batches onto idle devices with first-result-wins settlement.
``sched:`` specs build the one-device case.

Quick start::

    from repro.engines import build_engine

    engine = build_engine("fleet:host,host,hash=sha1,bs=8192")
    ticket = engine.submit(seed, digest, 3)
    result = ticket.result()
    print(result.seeds_hashed, engine.scheduler.snapshot()["devices"])

The device-loss chaos harness lives in :mod:`repro.fleet.storm`
(imported explicitly — a serving process has no use for it)::

    from repro.fleet.storm import run_device_loss_storm

    report = run_device_loss_storm(seed=0)
    assert not report.failures, report.render()
"""

from __future__ import annotations

from repro.fleet.device import FleetDevice
from repro.fleet.dispatcher import FleetScheduler
from repro.fleet.engine import DEVICE_WEIGHTS, FleetSearchEngine

__all__ = [
    "FleetDevice",
    "FleetScheduler",
    "FleetSearchEngine",
    "DEVICE_WEIGHTS",
]
