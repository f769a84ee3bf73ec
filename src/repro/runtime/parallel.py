"""Multiprocessing RBC search with a shared early-exit flag, forked per call.

The Python analogue of SALTED-CPU: ``p`` worker processes each own a
contiguous rank range of every Hamming-distance shell and run the
vectorized batch search over it; a shared flag (the OpenMP variant keeps
it in main memory, Algorithm 1 lines 7/15) tells everyone to stop as soon
as any worker finds the seed. Workers check the flag between kernel
batches — the granularity knob the paper studies in Section 4.4.

This engine is a one-search :class:`~repro.runtime.pool.WorkerPool`:
every call spawns the pool, runs one search with plan caching off, and
closes it, so the fork/join cost is paid — and timed — inside every call.
That is what the §4.3 / Figure 4 scaling benches and the amortization
cold baseline measure; the serving path keeps the same pool warm
(:class:`~repro.runtime.pool.PooledSearchExecutor`). Worker body,
partitioning and the per-shell merge are the pool's, so flag, timeout
and telemetry semantics are identical across both engines.
"""

from __future__ import annotations

import time
from dataclasses import replace

from repro.engines.hooks import EngineHooks
from repro.engines.result import SearchResult
from repro.runtime.pool import PooledSearchExecutor, default_worker_count

__all__ = ["ParallelSearchExecutor"]


class ParallelSearchExecutor:
    """Data-parallel search over ``workers`` processes (SALTED-CPU analogue)."""

    def __init__(
        self,
        hash_name: str = "sha3-256",
        workers: int | None = None,
        batch_size: int = 8192,
        iterator: str = "unrank",
        fixed_padding: bool = True,
        hooks: EngineHooks | None = None,
    ):
        self.hash_name = hash_name
        self.workers = workers if workers is not None else default_worker_count()
        if self.workers < 1:
            raise ValueError("workers must be positive")
        self.batch_size = batch_size
        self.iterator = iterator
        self.fixed_padding = fixed_padding
        self.hooks = hooks

    def describe(self) -> str:
        """Canonical spec string for this engine's configuration."""
        spec = (
            f"parallel:{self.hash_name},workers={self.workers},"
            f"bs={self.batch_size}"
        )
        if self.iterator != "unrank":
            spec += f",it={self.iterator}"
        return spec

    def search(
        self,
        base_seed: bytes,
        target_digest: bytes,
        max_distance: int,
        time_budget: float | None = None,
    ) -> SearchResult:
        """Spawn the workers, run one search, join them; all inside the clock."""
        start_time = time.perf_counter()
        with PooledSearchExecutor(
            self.hash_name,
            workers=self.workers,
            batch_size=self.batch_size,
            iterator=self.iterator,
            fixed_padding=self.fixed_padding,
            cache=False,
        ) as pool:
            result = pool.search(base_seed, target_digest, max_distance, time_budget)
        # Hooks fire here, not in the pool: this engine pays full
        # per-search costs and reports no amortization telemetry.
        if self.hooks is not None:
            for shell in result.shells:
                self.hooks.on_batch(shell.distance, shell.seeds_hashed)
                self.hooks.on_shell_complete(shell)
        return replace(
            result,
            elapsed_seconds=time.perf_counter() - start_time,
            engine=self.describe(),
            amortized=None,
        )
