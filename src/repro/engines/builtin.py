"""Built-in engine registrations — the registry's one construction site.

Imported lazily by :mod:`repro.engines.registry` on first use. Serving
code does not construct engine classes; it goes through
:func:`repro.engines.build_engine`, and the rows are here.

The dispatcher has four rows and one parameter list: ``fleet`` is
:class:`~repro.fleet.engine.FleetSearchEngine` itself, and ``sched`` /
``pool`` / ``parallel`` are that class over one ``host`` device, each
under its own default batch size and ``describe()`` name. Engines with a
single caller (the modeled-interconnect cluster, the original-RBC
baseline) are not rows; name them by dotted spec,
``repro.runtime.cluster.ClusterSearchExecutor:4,bs=8192``.
"""

from __future__ import annotations

import inspect
from collections.abc import Callable
from typing import Any

from repro.engines.modeled import ModeledDeviceEngine
from repro.engines.registry import register_engine
from repro.fleet.engine import FleetSearchEngine
from repro.runtime.executor import BatchSearchExecutor

__all__: list[str] = []

register_engine(
    "batch",
    description="Single-process vectorized SALTED search (NumPy lanes)",
)(BatchSearchExecutor)

register_engine(
    "fleet",
    description="Health-checked multi-device dispatch with re-dispatch and hedging",
)(FleetSearchEngine)


def _one_host(
    name: str, batch_size: int, workers: bool = False
) -> Callable[..., FleetSearchEngine]:
    """The factory of a one-``host`` dispatcher row.

    It takes every keyword option of :class:`FleetSearchEngine` — read
    off the class, so a new one is declared once — with the hash first
    (``sched:sha1`` reads like ``batch:sha1``; ``workers`` second for the
    rows that are about it) and the row's default batch size, and has
    the engine answer ``describe()`` under the row's name.
    """
    lead = ("hash_name", "workers") if workers else ("hash_name",)
    options = {
        p.name: p.replace(kind=inspect.Parameter.POSITIONAL_OR_KEYWORD)
        for p in inspect.signature(FleetSearchEngine).parameters.values()
        if p.kind is inspect.Parameter.KEYWORD_ONLY
    }
    options["batch_size"] = options["batch_size"].replace(default=batch_size)

    def build(**given: Any) -> FleetSearchEngine:
        engine = FleetSearchEngine("host", **{"batch_size": batch_size, **given})
        spec = f"{name}:{engine.hash_name}"
        if workers:
            spec += f",workers={engine.workers}"
        engine.scheduler.spec_string = spec + f",bs={engine.batch_size}"
        return engine

    build.__signature__ = inspect.Signature(  # type: ignore[attr-defined]
        [options.pop(first) for first in lead] + list(options.values())
    )
    return build


register_engine(
    "sched",
    description="Deadline-aware continuous-batching scheduler: the one-device fleet",
)(_one_host("sched", batch_size=16384))
register_engine(
    "pool",
    description="One host device hashing on `workers` threads "
    "that make their own candidates",
    aliases={"w": "workers"},
)(_one_host("pool", batch_size=16384, workers=True))
register_engine(
    "parallel",
    description="One host device hashing on `workers` threads "
    "(default: the cpuset); the SALTED-CPU analogue",
    aliases={"w": "workers"},
)(_one_host("parallel", batch_size=8192, workers=True))


def _register_modeled(name: str, model_factory, description: str) -> None:
    @register_engine(name, description=description)
    def _build_modeled(
        hash_name: str = "sha3-256",
        batch_size: int = 16384,
        mode: str = "exhaustive",
    ) -> ModeledDeviceEngine:
        return ModeledDeviceEngine(
            model_factory(), hash_name=hash_name, batch_size=batch_size, mode=mode
        )


def _gpu_model():
    from repro.devices.gpu import GPUModel

    return GPUModel()


def _apu_model():
    from repro.devices.apu import APUModel

    return APUModel()


def _cpu_model():
    from repro.devices.cpu import CPUModel

    return CPUModel()


_register_modeled(
    "gpu-model",
    _gpu_model,
    "Real search, wall time modeled on the paper's A100 GPU",
)
_register_modeled(
    "apu-model",
    _apu_model,
    "Real search, wall time modeled on the paper's Gemini APU",
)
_register_modeled(
    "cpu-model",
    _cpu_model,
    "Real search, wall time modeled on the paper's EPYC CPU",
)
