"""Device-loss chaos storm: kill a fleet device mid-run, prove nothing broke.

The scenario the fleet layer exists for: a multi-client serving burst is
in flight when one device abruptly dies (at 25% of completions), stays
dark, and comes back (at 75%). The storm then asserts the protocol-level
invariants:

* **zero lost requests** — every submission resolves to a result or a
  typed :class:`~repro.refusals.RequestShed`, never hangs;
* **zero false authentications** — every ``found`` seed re-hashes to its
  client's digest;
* **byte equivalence** — every fleet outcome (found flag, seed bytes,
  distance) matches a single-device
  :class:`~repro.runtime.executor.BatchSearchExecutor` reference run;
* **recovery really happened** — re-dispatched chunks > 0 (orphaned work
  was replayed on survivors) and the killed device is reinstated by the
  health monitor before the fleet closes.

Deterministic by construction: the workload is seeded, the kill/revive
points are completion *counts* (not wall-clock), and the single surviving
host device makes the candidate order the single-engine order.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

from repro.engines.registry import build_engine
from repro.hashes.registry import get_hash
from repro.storm import (
    drive,
    false_authentications,
    invariant_failures,
    planted,
    search_submit,
    set_device_alive,
    summarize,
    ticket_submit,
)

from repro.fleet.engine import FleetSearchEngine

__all__ = ["DeviceLossStormReport", "run_device_loss_storm"]

#: How long the storm waits for its in-flight requests before calling
#: them lost.
_SETTLE_TIMEOUT = 120.0


@dataclass
class DeviceLossStormReport:
    """Outcome of one device-loss storm, renderable and assertable."""

    seed: int
    requests: int
    devices: tuple[str, ...]
    victim: str
    killed_after: int
    revived_after: int
    resolved: int = 0
    found: int = 0
    shed: int = 0
    lost_requests: int = 0
    false_authentications: int = 0
    byte_mismatches: int = 0
    redispatched_chunks: int = 0
    reassigned_requests: int = 0
    hedges_launched: int = 0
    quarantines: int = 0
    reinstatements: int = 0
    victim_reinstated: bool = False
    wall_seconds: float = 0.0
    snapshot: dict = field(default_factory=dict)

    @property
    def failures(self) -> list[str]:
        """The storm's hard invariants that broke, by name; empty is PASS."""
        failures = invariant_failures(
            false_authentications=self.false_authentications,
            lost=self.lost_requests,
        )
        if self.byte_mismatches:
            failures.append(
                f"{self.byte_mismatches} outcome(s) differ from the "
                "single-device reference run"
            )
        if not self.redispatched_chunks:
            failures.append("no orphaned chunk was re-dispatched to a survivor")
        if not self.victim_reinstated:
            failures.append(f"victim {self.victim!r} was never reinstated")
        return failures

    def render(self) -> str:
        lines = [
            f"device-loss storm  seed={self.seed}  devices={','.join(self.devices)}",
            f"  requests: {self.requests}  resolved: {self.resolved}  "
            f"found: {self.found}  shed: {self.shed}",
            f"  victim {self.victim!r}: killed after {self.killed_after} "
            f"completions, revived after {self.revived_after}",
            f"  re-dispatched chunks: {self.redispatched_chunks}  "
            f"reassigned requests: {self.reassigned_requests}  "
            f"hedges: {self.hedges_launched}",
            f"  quarantines: {self.quarantines}  "
            f"reinstatements: {self.reinstatements}  "
            f"victim reinstated: {self.victim_reinstated}",
            f"  lost: {self.lost_requests}  "
            f"false auths: {self.false_authentications}  "
            f"byte mismatches: {self.byte_mismatches}",
            f"  wall: {self.wall_seconds:.2f}s  "
            f"verdict: {'FAIL' if self.failures else 'PASS'}",
        ]
        return "\n".join(lines)


def run_device_loss_storm(
    seed: int = 0,
    requests: int = 10,
    depths: tuple[int, ...] = (1, 2, 2, 3),
    hash_name: str = "sha1",
    batch_size: int = 4096,
    devices: tuple[str, ...] = ("host", "host"),
    kill_fraction: float = 0.25,
    revive_fraction: float = 0.75,
    heartbeat_seconds: float = 0.01,
    recovery_seconds: float = 0.1,
    reinstate_timeout: float = 3.0,
) -> DeviceLossStormReport:
    """Kill ``devices[-1]`` at 25% of completions, revive at 75%, verify.

    Kill/revive points are completion counts so the storm is seeded and
    repeatable; the victim is the *last* device so device 0 always
    survives to replay orphaned chunks.
    """
    if len(devices) < 2:
        raise ValueError("the storm needs at least two devices (one survives)")
    algo = get_hash(hash_name)
    workload = planted(algo, requests, depths, seed)
    # Single-device byte-truth: what each search must return.
    reference = build_engine("batch", hash_name=hash_name, batch_size=batch_size)
    truth = [
        (o.status, o.seed, o.distance)
        for o in drive(search_submit(reference), workload, timeout=_SETTLE_TIMEOUT)
    ]

    engine = FleetSearchEngine(
        *devices,
        hash_name=hash_name,
        batch_size=batch_size,
        heartbeat_seconds=heartbeat_seconds,
        recovery_seconds=recovery_seconds,
        fault_seed=seed,
    )
    fleet = engine.scheduler
    victim = fleet.devices[-1].name
    kill_after = max(1, math.ceil(kill_fraction * requests))
    revive_after = max(kill_after + 1, math.ceil(revive_fraction * requests))
    report = DeviceLossStormReport(
        seed=seed,
        requests=requests,
        devices=tuple(devices),
        victim=victim,
        killed_after=kill_after,
        revived_after=revive_after,
    )

    def switch(settled: int) -> None:
        if settled == kill_after:
            fleet.kill_device(victim)
        elif settled == revive_after:
            fleet.revive_device(victim)

    start = time.perf_counter()
    outcomes = drive(
        ticket_submit(engine), workload, timeout=_SETTLE_TIMEOUT, on_settled=switch
    )
    stats = summarize(outcomes)
    report.resolved = stats["served"] + stats["shed"]
    report.found = stats["found"]
    report.shed = stats["shed"]
    # Neither a result nor a typed shed: an error is a lost request too.
    report.lost_requests = stats["lost"] + len(stats["errors"])
    report.false_authentications = false_authentications(algo, outcomes)
    report.byte_mismatches = sum(
        o.served and (o.status, o.seed, o.distance) != expected
        for o, expected in zip(outcomes, truth, strict=True)
    )

    # The storm may finish before 75% of completions (all resolved while
    # the victim was dark) — make sure the revive switch has flipped,
    # then give the monitor a bounded window to reinstate the victim.
    report.victim_reinstated = set_device_alive(
        fleet, victim, True, timeout=reinstate_timeout
    )
    report.wall_seconds = time.perf_counter() - start

    snapshot = fleet.snapshot()
    # Not drained: a lost request must fail the storm, not hang it.
    engine.close(drain=False)
    report.snapshot = snapshot
    report.redispatched_chunks = int(snapshot["redispatched_chunks"])
    report.reassigned_requests = int(snapshot["reassigned_requests"])
    report.hedges_launched = int(snapshot["hedges_launched"])
    report.quarantines = int(snapshot["quarantines"])
    report.reinstatements = int(snapshot["reinstatements"])
    return report
