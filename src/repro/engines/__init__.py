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
while forwarding its search geometry and its one-way function
(``.algo``), and every engine returns the same :class:`SearchResult`:
seeds hashed and seconds, per Hamming shell.

This module is intentionally cheap to import: the built-in engines are
registered lazily on first registry use.
"""

from __future__ import annotations

from typing import Any

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
    ClusterStats,
    DirectoryStats,
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
    "ClusterStats",
    "DirectoryStats",
    "SearchEngine",
    "merge_shells",
    "EngineWrapper",
    "DEFAULT_BATCH_SIZE",
    "describe_engine",
    "engine_target",
]


def engine_target(engine: Any, seed: bytes) -> bytes:
    """The public value ``engine`` searches for, given the true ``seed``.

    Hash engines (SALTED) respond with a digest of the seed; the
    original-RBC baseline responds with a cipher output keyed by the
    seed. Every engine keeps that one-way function at ``.algo`` (wrappers
    forward the wrapped engine's), so callers — the CLI, the equivalence
    tests — can treat every engine uniformly.
    """
    return engine.algo.hash_seed(seed)
