"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro._bitutils import flip_bits


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(0xC0FFEE)


@pytest.fixture
def base_seed(rng) -> bytes:
    return rng.bytes(32)


@pytest.fixture
def planted_pair(base_seed, rng):
    """(base_seed, client_seed, distance) with the client seed planted at
    a known Hamming distance 2."""
    positions = sorted(rng.choice(256, size=2, replace=False).tolist())
    return base_seed, flip_bits(base_seed, positions), 2


@pytest.fixture
def small_authority():
    """A fully enrolled CA + client at interactive scale (d <= 2)."""
    from repro import quick_setup

    authority, client, mask = quick_setup(seed=11)
    return authority, client, mask


def run_device_loss_storm(
    seed: int = 0,
    requests: int = 10,
    devices: tuple[str, ...] = ("host", "host"),
    no_device_grace: float = 2.0,
) -> dict:
    """The device-loss storm on the storm kit.

    ``requests`` seeded searches planted at depths 1, 2, 2, 3 (SHA-1,
    4 096-row batches) are served on one device per token; the last
    device is killed at a quarter of the settlements and revived at
    three quarters (completion counts, not wall time, so the schedule
    is seeded). Returns the storm's verdicts field by field;
    ``mismatches`` compares every request's found flag, seed and
    distance with a ``batch:`` search of it, and ``counters`` holds what
    depends on thread timing: how many ranges were in flight when the
    device died.
    """
    import math

    from repro.engines import build_engine
    from repro.fleet import FleetSearchEngine
    from repro.hashes.registry import get_hash
    from repro.storm import (
        drive,
        false_authentications,
        planted,
        set_device_alive,
        summarize,
        ticket_submit,
    )

    algo = get_hash("sha1")
    workload = planted(algo, requests, (1, 2, 2, 3), seed)
    reference = build_engine("batch", hash_name="sha1", batch_size=4096)
    truth = [
        reference.search(r.base_seed, r.digest, r.max_distance) for r in workload
    ]
    engine = FleetSearchEngine(
        *devices, workers=1, hash_name="sha1", batch_size=4096,
        heartbeat_seconds=0.01, recovery_seconds=0.1,
        no_device_grace=no_device_grace,
    )
    fleet = engine.scheduler
    victim = fleet.devices[-1].name
    kill_after = max(1, math.ceil(requests / 4))
    revive_after = max(kill_after + 1, math.ceil(3 * requests / 4))

    def switch(settled: int) -> None:
        if settled == kill_after:
            fleet.kill_device(victim)
        elif settled == revive_after:
            fleet.revive_device(victim)

    try:
        outcomes = drive(
            ticket_submit(engine), workload, timeout=120.0, on_settled=switch
        )
        # All may settle while the victim is dark: revive it, and give
        # the monitor a bounded window to reinstate it.
        reinstated = set_device_alive(fleet, victim, True, timeout=3.0)
        snapshot = fleet.snapshot()
    finally:
        # Not drained: a lost request must fail the storm, not hang it.
        engine.close(drain=False)
    stats = summarize(outcomes)
    return {
        "victim": victim,
        "killed_after": kill_after,
        "revived_after": revive_after,
        "statuses": [o.status for o in outcomes],
        "shed_reasons": stats["shed_reasons"],
        "lost": stats["lost"] + len(stats["errors"]),
        "false_authentications": false_authentications(algo, outcomes),
        "mismatches": sum(
            not o.served
            or (o.status == "found", o.seed, o.distance)
            != (t.found, t.seed, t.distance)
            for o, t in zip(outcomes, truth, strict=True)
        ),
        "victim_reinstated": reinstated,
        "counters": {
            key: snapshot[key]
            for key in ("redispatched_chunks", "quarantines", "reinstatements")
        },
    }


@pytest.fixture
def device_loss_storm():
    """:func:`run_device_loss_storm`, for the tests that hold its verdicts."""
    return run_device_loss_storm
