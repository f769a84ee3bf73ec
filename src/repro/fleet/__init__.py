"""The dispatcher: continuous batching over one or more health-checked devices.

A search becomes one ticket (:mod:`~repro.fleet.scheduler`), admitted
and ordered by deadline-aware lanes (:mod:`~repro.fleet.policy`), whose
cursor walks its shells in ranges of whatever room a device batch has
(``batch_size`` rows per core), fused with other clients' ranges into
each device batch (:mod:`~repro.fleet.batcher`), and counted as
``batch:`` counts its batches. Every device — a ``host`` hashing on all
its cores, each modeled backend — pulls its own ranges from that stream,
so one search runs on all of them at once and settles in rank order. The
dispatcher health-checks them with heartbeat probes and per-device circuit
breakers and re-dispatches ranges orphaned by a device failure onto
survivors (preserving the byte-equivalence contract). No range runs on
two devices at once. ``sched:`` specs build the one-host case.

Quick start::

    from repro.engines import build_engine

    engine = build_engine("fleet:host,hash=sha1,bs=8192")
    ticket = engine.submit(seed, digest, 3)
    result = ticket.result()
    print(result.seeds_hashed, engine.scheduler.snapshot()["devices"])

A device is lost and brought back with ``engine.scheduler.kill_device``
/ ``revive_device``; the device-loss storm that kills one mid-run is a
tier-1 scenario on the storm kit (``tests/test_fleet.py``), not a
module of this package.
"""

from __future__ import annotations

from repro.fleet.device import FleetDevice
from repro.fleet.dispatcher import FleetScheduler
from repro.fleet.engine import DEVICE_NAMES, FleetSearchEngine

__all__ = [
    "FleetDevice",
    "FleetScheduler",
    "FleetSearchEngine",
    "DEVICE_NAMES",
]
