"""Engine-lifecycle hooks: one telemetry tap for every engine.

Engines call :meth:`EngineHooks.on_batch` after each kernel batch and
:meth:`EngineHooks.on_shell_complete` when a Hamming-distance shell
finishes. The serving layer, the chaos harness, and the analysis code
all observe searches through this one interface instead of each
inventing its own counters.

Everything else a search has to report — plan-cache amortization, the
scheduler's lane and queueing, the fleet's devices — rides on the
:class:`~repro.engines.result.SearchResult` it returns and in
``FleetScheduler.snapshot()``, not through a hook.

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

from repro.engines.result import ShellStats

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

    def snapshot(self) -> dict[str, object]:
        """A consistent copy of every counter."""
        with self._lock:
            return {
                "batches": self.batches,
                "seeds_hashed": self.seeds_hashed,
                "shells_completed": self.shells_completed,
                "shell_seconds": self.shell_seconds,
                "seeds_by_distance": dict(self.seeds_by_distance),
            }
