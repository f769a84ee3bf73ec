"""Engine-lifecycle hooks: one telemetry tap for every engine.

Engines call :meth:`EngineHooks.on_batch` after each kernel batch and
:meth:`EngineHooks.on_shell_complete` when a Hamming-distance shell
finishes. The serving layer, the chaos harness, and the analysis code
all observe searches through this one interface instead of each
inventing its own counters.

``on_amortization``, ``on_schedule``, and ``on_fleet`` are *optional*
extensions: amortized-pipeline engines (plan cache) call
``on_amortization`` once per search with that search's
:class:`~repro.engines.result.AmortizationStats`, the scheduler
(:mod:`repro.sched`) calls ``on_schedule`` once per request — at
retirement — with its
:class:`~repro.engines.result.SchedulingStats`, and the device fleet
(:mod:`repro.fleet`) calls ``on_fleet`` once per request with its
:class:`~repro.engines.result.FleetStats`. All three are discovered
via ``getattr`` so third-party hook objects implementing only the two
required methods keep working unchanged.

Hook discipline:

* hooks must be cheap — they run inside the search hot loop;
* hooks see *backend* activity: a distributed engine reports every
  rank's shells (duplicate distances are expected), a multiprocessing
  engine reports merged per-distance shells from the parent process
  (hooks do not cross process boundaries);
* a hook that raises aborts the search — don't raise.
"""

from __future__ import annotations

import threading
from typing import Protocol, runtime_checkable

from repro.engines.result import (
    AmortizationStats,
    FleetStats,
    SchedulingStats,
    ShellStats,
)

__all__ = ["EngineHooks", "NullHooks", "TelemetryHooks"]


@runtime_checkable
class EngineHooks(Protocol):
    """What an engine tells the world while it searches."""

    def on_batch(self, distance: int, seeds_hashed: int) -> None:
        """One kernel batch of ``seeds_hashed`` candidates finished."""
        ...

    def on_shell_complete(self, shell: ShellStats) -> None:
        """One Hamming-distance shell finished (found, exhausted, or cut)."""
        ...


class NullHooks:
    """The do-nothing default."""

    def on_batch(self, distance: int, seeds_hashed: int) -> None:
        return None

    def on_shell_complete(self, shell: ShellStats) -> None:
        return None

    def on_amortization(self, stats: AmortizationStats) -> None:
        return None

    def on_schedule(self, stats: SchedulingStats) -> None:
        return None

    def on_fleet(self, stats: FleetStats) -> None:
        return None


class TelemetryHooks:
    """Thread-safe accumulating hooks — the standard telemetry consumer.

    Safe to share across engines and across the serving layer's worker
    threads; ``snapshot()`` returns a consistent copy.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.batches = 0
        self.seeds_hashed = 0
        self.shells_completed = 0
        self.shell_seconds = 0.0
        self.seeds_by_distance: dict[int, int] = {}
        self.plan_hits = 0
        self.plan_misses = 0
        self.scheduled = 0
        self.shared_batches = 0
        self.preemptions = 0
        self.queue_seconds = 0.0
        self.fleet_requests = 0
        self.redispatched_chunks = 0
        self.hedged_batches = 0

    def on_batch(self, distance: int, seeds_hashed: int) -> None:
        with self._lock:
            self.batches += 1
            self.seeds_hashed += seeds_hashed
            self.seeds_by_distance[distance] = (
                self.seeds_by_distance.get(distance, 0) + seeds_hashed
            )

    def on_shell_complete(self, shell: ShellStats) -> None:
        with self._lock:
            self.shells_completed += 1
            self.shell_seconds += shell.seconds

    def on_amortization(self, stats: AmortizationStats) -> None:
        with self._lock:
            self.plan_hits += stats.plan_hits
            self.plan_misses += stats.plan_misses

    def on_schedule(self, stats: SchedulingStats) -> None:
        with self._lock:
            self.scheduled += 1
            self.shared_batches += stats.shared_batches
            self.preemptions += stats.preemptions
            self.queue_seconds += stats.queue_seconds

    def on_fleet(self, stats: FleetStats) -> None:
        with self._lock:
            self.fleet_requests += 1
            self.redispatched_chunks += stats.redispatched_chunks
            self.hedged_batches += stats.hedged_batches

    def snapshot(self) -> dict[str, object]:
        """A consistent copy of every counter."""
        with self._lock:
            return {
                "batches": self.batches,
                "seeds_hashed": self.seeds_hashed,
                "shells_completed": self.shells_completed,
                "shell_seconds": self.shell_seconds,
                "seeds_by_distance": dict(self.seeds_by_distance),
                "plan_hits": self.plan_hits,
                "plan_misses": self.plan_misses,
                "scheduled": self.scheduled,
                "shared_batches": self.shared_batches,
                "preemptions": self.preemptions,
                "queue_seconds": self.queue_seconds,
                "fleet_requests": self.fleet_requests,
                "redispatched_chunks": self.redispatched_chunks,
                "hedged_batches": self.hedged_batches,
            }
