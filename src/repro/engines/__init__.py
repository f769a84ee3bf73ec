"""Unified search-engine stack: registry, wrappers, one result type.

Every way this repo can run Algorithm 1 — single-process vectorized
batch search, multiprocessing, the in-process MPI-style cluster, the
original-RBC cipher baseline, and the device-model-backed accelerator
engines — is reachable through one front door::

    from repro.engines import build_engine

    engine = build_engine("batch:sha3-256,bs=16384")
    result = engine.search(base_seed, target, max_distance=3)

Specs follow ``name[:arg,...][,key=value,...]`` with short aliases
(``bs`` → ``batch_size``, ``hash`` → ``hash_name``), or a dotted path
to any callable returning an engine. Wrappers (:class:`EngineWrapper`
subclasses — nonce binding, modeled devices) compose around any engine
while forwarding its search geometry, and every engine returns the same
instrumented :class:`SearchResult`.

This module is intentionally cheap to import: the built-in engines are
registered lazily on first registry use.
"""

from __future__ import annotations

from repro.engines.hooks import EngineHooks, NullHooks, TelemetryHooks
from repro.engines.registry import (
    EngineConfig,
    EngineEntry,
    build_engine,
    engine_entries,
    engine_names,
    get_entry,
    register_engine,
)
from repro.engines.result import (
    AmortizationStats,
    ClusterStats,
    DirectoryStats,
    FleetStats,
    SchedulingStats,
    SearchEngine,
    SearchResult,
    ShellStats,
    merge_shells,
)
from repro.engines.wrappers import DEFAULT_BATCH_SIZE, EngineWrapper, describe_engine

__all__ = [
    "EngineConfig",
    "EngineEntry",
    "register_engine",
    "build_engine",
    "engine_names",
    "engine_entries",
    "get_entry",
    "SearchResult",
    "ShellStats",
    "AmortizationStats",
    "ClusterStats",
    "SchedulingStats",
    "FleetStats",
    "DirectoryStats",
    "SearchEngine",
    "merge_shells",
    "EngineHooks",
    "NullHooks",
    "TelemetryHooks",
    "EngineWrapper",
    "DEFAULT_BATCH_SIZE",
    "describe_engine",
    "engine_target",
]


def engine_target(engine: object, seed: bytes) -> bytes:
    """The public value ``engine`` searches for, given the true ``seed``.

    Hash engines (SALTED) respond with a digest of the seed; the
    original-RBC baseline responds with a cipher output keyed by the
    seed. This helper computes the right target for either family (and
    unwraps composed wrappers first), so callers — the CLI, the
    equivalence tests — can treat every registered engine uniformly.
    """
    base = engine.unwrap() if isinstance(engine, EngineWrapper) else engine
    response_batch = getattr(base, "response_batch", None)
    if response_batch is not None:
        from repro._bitutils import seed_to_words

        return bytes(response_batch(seed_to_words(seed)[None, :])[0].tobytes())
    algo = getattr(base, "algo", None)
    if algo is not None:
        return algo.hash_seed(seed)
    from repro.hashes.registry import get_hash

    hash_name = getattr(base, "hash_name", "sha3-256")
    return get_hash(hash_name).hash_seed(seed)
