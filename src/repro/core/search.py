"""Algorithm 1 as a protocol-facing service.

:class:`RBCSearchService` wraps an execution engine (single-process
vectorized, multiprocessing, or a simulated device) behind the interface
the CA uses: *given a digest and an enrolled seed, find the client's seed
within the time threshold T*. The paper fixes T = 20 s.

The service also implements the protocol's planning rule: before
accepting a maximum distance it checks, against the engine's measured or
modeled throughput, that the exhaustive search fits the threshold, and
reports the largest tractable ``d``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.complexity import tractable_distance
from repro.engines.result import SearchEngine, SearchResult

__all__ = ["RBCSearchService", "SearchEngine", "DEFAULT_TIME_THRESHOLD"]

#: The paper's authentication time threshold (Section 3, after prior work).
DEFAULT_TIME_THRESHOLD = 20.0


@dataclass
class RBCSearchService:
    """The CA-side search component of RBC-SALTED.

    Parameters
    ----------
    engine:
        The execution engine (e.g. :class:`~repro.runtime.BatchSearchExecutor`).
    max_distance:
        Largest Hamming distance to search (the paper uses 5).
    time_threshold:
        The T budget; searches exceeding it fail and the protocol
        restarts with a fresh handshake.
    """

    engine: SearchEngine
    max_distance: int = 5
    time_threshold: float = DEFAULT_TIME_THRESHOLD

    def find_seed(
        self,
        enrolled_seed: bytes,
        client_digest: bytes,
        deadline_seconds: float | None = None,
    ) -> SearchResult:
        """Search for the client's seed; respects the T threshold.

        A client-supplied ``deadline_seconds`` tightens (never loosens)
        the protocol budget: the engine runs under ``min(T, deadline)``.
        """
        if self.max_distance < 0:
            raise ValueError("max_distance must be non-negative")
        budget = self.time_threshold
        if deadline_seconds is not None:
            if deadline_seconds < 0:
                raise ValueError("deadline_seconds must be non-negative")
            budget = min(budget, deadline_seconds)
        return self.engine.search(
            enrolled_seed,
            client_digest,
            max_distance=self.max_distance,
            time_budget=budget,
        )

    def plan_max_distance(self, throughput_hashes_per_second: float) -> int:
        """Largest d tractable under T at the given engine throughput."""
        return tractable_distance(
            throughput_hashes_per_second, self.time_threshold
        )
