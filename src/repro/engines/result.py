"""The one outcome type every search engine returns.

A search is reported as the paper reports it (Table 5, §4): seeds hashed
and seconds, in total and per Hamming shell (``shells``, populated by
every engine). What a dispatcher or a mask-plan cache did around a
search is not copied onto the result: those are counted once, where they
happen (``FleetScheduler.snapshot()``, ``MaskPlanCache.stats()``).

Nothing in this module imports from the rest of :mod:`repro` — it is the
bottom of the engine-stack dependency graph, safe to import from any
layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, runtime_checkable

__all__ = [
    "ShellStats",
    "SearchResult",
    "SearchEngine",
]


@dataclass(frozen=True)
class ShellStats:
    """Per-Hamming-distance breakdown of one search."""

    distance: int
    seeds_hashed: int
    seconds: float

    @property
    def throughput(self) -> float:
        """Seeds hashed per second within this shell."""
        return self.seeds_hashed / self.seconds if self.seconds > 0 else 0.0


@dataclass(frozen=True)
class SearchResult:
    """Outcome of one RBC search — the one shape every engine returns.

    ``elapsed_seconds`` is always the answer-latency the protocol
    compares against T: real wall time for host engines, modeled device
    time for the device-model-backed engines.
    """

    found: bool
    seed: bytes | None
    distance: int | None
    seeds_hashed: int
    elapsed_seconds: float
    timed_out: bool = False
    #: Per-shell breakdown; every engine populates it.
    shells: tuple[ShellStats, ...] = ()
    #: Which engine produced this result (its ``describe()`` string).
    engine: str | None = None

    def __bool__(self) -> bool:
        return self.found

    @property
    def throughput(self) -> float:
        """Seeds hashed per second over the whole search."""
        return (
            self.seeds_hashed / self.elapsed_seconds
            if self.elapsed_seconds > 0
            else 0.0
        )


@runtime_checkable
class SearchEngine(Protocol):
    """Anything that can run the Algorithm-1 search."""

    def search(
        self,
        base_seed: bytes,
        target_digest: bytes,
        max_distance: int,
        time_budget: float | None = None,
    ) -> SearchResult:
        """Run Algorithm 1 up to ``max_distance`` within ``time_budget``."""
        ...
