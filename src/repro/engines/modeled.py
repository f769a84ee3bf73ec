"""Device-model-backed engine: real search, modeled accelerator time.

The paper's headline numbers come from hardware we don't have; the
device models (:mod:`repro.devices`) supply calibrated timing for it.
:class:`ModeledDeviceEngine` splices those models into the live engine
stack: the *correctness* path (which seed is found, at what distance,
how many candidates were hashed) executes for real on the host's
vectorized kernels, while ``elapsed_seconds`` is replaced by the device
model's predicted time for the distance actually searched. Every
consumer of the unified result — the search service, the capacity
planner, the CLI — thereby sees "what would an A100 / Gemini APU / EPYC
have answered, and how fast".

Timeouts stay honest: ``timed_out`` reflects the *real* execution
against the caller's budget (the host actually ran the search), so the
protocol's T-threshold semantics are identical across every registered
engine.
"""

from __future__ import annotations

from dataclasses import replace

from repro.engines.registry import build_engine
from repro.engines.result import SearchResult
from repro.engines.wrappers import EngineWrapper

__all__ = ["ModeledDeviceEngine"]


class ModeledDeviceEngine(EngineWrapper):
    """Search on the host, report the modeled accelerator's wall time."""

    wrapper_name = "modeled"

    def __init__(
        self,
        model,
        hash_name: str = "sha3-256",
        batch_size: int = 16384,
        mode: str = "exhaustive",
    ):
        super().__init__(
            build_engine("batch", hash_name=hash_name, batch_size=batch_size)
        )
        self.model = model
        self.mode = mode

    def describe(self) -> str:
        device = getattr(self.model.spec, "name", type(self.model).__name__)
        return f"modeled[{device}]({self.inner.describe()})"

    def modeled_seconds(self, distance: int) -> float:
        """The device model's predicted time to search out to ``distance``."""
        if distance < 1:
            return 0.0
        return float(
            self.model.search_time(self.inner.hash_name, distance, self.mode)
        )

    def search(
        self,
        base_seed: bytes,
        target_digest: bytes,
        max_distance: int,
        time_budget: float | None = None,
    ) -> SearchResult:
        """Real search; elapsed time swapped for the model's prediction."""
        result = self.inner.search(
            base_seed, target_digest, max_distance, time_budget=time_budget
        )
        if result.timed_out:
            # The host ran out of budget: keep the honest real timing.
            return replace(result, engine=self.describe())
        reached = result.distance if result.found else max_distance
        return replace(
            result,
            elapsed_seconds=self.modeled_seconds(reached or 0),
            engine=self.describe(),
        )
