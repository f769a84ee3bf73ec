"""Composable engine wrappers: geometry and identity forwarded once.

Before this module existed every wrapper hand-copied geometry off the
engine it wrapped (``getattr(inner, "batch_size", 4096)`` appeared in
the fault injector *and* the session layer). :class:`EngineWrapper`
centralizes that: geometry (``batch_size``, ``iterator``,
``fixed_padding``) and identity (``hash_name``, ``describe()``) are
forwarded properties, so wrappers nest arbitrarily — a nonce-binding
adapter around a modeled device around a batch executor still reports
the innermost engine's geometry. Surviving a device that fails is not a
wrapper's job: the fleet dispatcher quarantines it and re-dispatches.
"""

from __future__ import annotations

from typing import Any

from repro.engines.result import SearchEngine, SearchResult

__all__ = ["DEFAULT_BATCH_SIZE", "EngineWrapper", "describe_engine"]

#: The one fallback batch size, for inner engines that expose none.
DEFAULT_BATCH_SIZE = 4096


def describe_engine(engine: Any) -> str:
    """Best-effort one-line identity of any engine-shaped object."""
    describe = getattr(engine, "describe", None)
    if callable(describe):
        return str(describe())
    return type(engine).__name__


class EngineWrapper:
    """Base for engines that wrap another engine.

    Subclasses override :meth:`search` (and usually call
    ``self.inner.search``); geometry and identity come along for free.
    """

    #: Short name used in ``describe()``; subclasses override.
    wrapper_name = "wrapper"

    def __init__(self, inner: SearchEngine):
        self.inner = inner

    # -- forwarded geometry and identity -------------------------------

    @property
    def batch_size(self) -> int:
        """The wrapped engine's kernel batch size (lane width)."""
        return int(getattr(self.inner, "batch_size", DEFAULT_BATCH_SIZE))

    @property
    def algo(self) -> Any:
        """The wrapped engine's one-way function (``engine_target`` reads it)."""
        return self.inner.algo

    @property
    def hash_name(self) -> str | None:
        """The wrapped engine's hash algorithm, when it has one."""
        return getattr(self.inner, "hash_name", None)

    @property
    def iterator(self) -> str | None:
        """The wrapped engine's combination source, when it has one."""
        return getattr(self.inner, "iterator", None)

    @property
    def fixed_padding(self) -> bool | None:
        """The wrapped engine's padding mode, when it has one."""
        return getattr(self.inner, "fixed_padding", None)

    def unwrap(self) -> SearchEngine:
        """The innermost wrapped engine."""
        engine: Any = self.inner
        while isinstance(engine, EngineWrapper):
            engine = engine.inner
        return engine

    def describe(self) -> str:
        """``wrapper(inner)`` chain, e.g. ``modeled[gpu](batch:sha1,bs=4096)``."""
        return f"{self.wrapper_name}({describe_engine(self.inner)})"

    # -- forwarded behaviour -------------------------------------------

    def search(
        self,
        base_seed: bytes,
        target_digest: bytes,
        max_distance: int,
        time_budget: float | None = None,
    ) -> SearchResult:
        """Delegate to the wrapped engine (subclasses decorate this)."""
        return self.inner.search(
            base_seed, target_digest, max_distance, time_budget=time_budget
        )

    def throughput_probe(self, *args: Any, **kwargs: Any) -> float:
        """Delegate to the wrapped engine's probe, when it has one."""
        probe = getattr(self.inner, "throughput_probe", None)
        if probe is None:
            raise AttributeError(
                f"{describe_engine(self)} wraps an engine with no "
                "throughput_probe"
            )
        return float(probe(*args, **kwargs))
