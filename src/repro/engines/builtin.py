"""Built-in engine registrations — the registry's one construction site.

Imported lazily by :mod:`repro.engines.registry` on first use. This is
deliberately the only module in ``src/repro`` outside the engines'
own implementations that constructs engine classes directly; everything
else goes through :func:`repro.engines.build_engine`.
"""

from __future__ import annotations

from repro.engines.hooks import EngineHooks
from repro.engines.modeled import ModeledDeviceEngine
from repro.engines.registry import register_engine
from repro.runtime.cluster import ClusterSearchExecutor, Interconnect
from repro.runtime.executor import BatchSearchExecutor
from repro.runtime.original_batch import BatchOriginalRBCSearch
from repro.fleet.engine import FleetSearchEngine

__all__: list[str] = []


@register_engine(
    "batch",
    description="Single-process vectorized SALTED search (NumPy lanes)",
)
def _build_batch(
    hash_name: str = "sha3-256",
    batch_size: int = 16384,
    iterator: str = "unrank",
    fixed_padding: bool = True,
    hooks: EngineHooks | None = None,
    cache: bool = False,
    warm: int = 0,
) -> BatchSearchExecutor:
    return BatchSearchExecutor(
        hash_name=hash_name,
        batch_size=batch_size,
        iterator=iterator,
        fixed_padding=fixed_padding,
        hooks=hooks,
        cache=cache,
        warm=warm,
    )


def _describe_as(
    engine: FleetSearchEngine,
    name: str,
    *,
    iterator: str,
    cache: bool,
    warm: int = 0,
    workers: bool = False,
) -> FleetSearchEngine:
    """Have the one-``host`` dispatcher answer ``describe()`` under the
    registry name it was asked for by (``sched`` / ``pool`` / ``parallel``)."""
    spec = f"{name}:{engine.hash_name}"
    if workers:
        spec += f",workers={engine.workers}"
    spec += f",bs={engine.batch_size}"
    if iterator != "unrank":
        spec += f",it={iterator}"
    if not cache:
        spec += ",cache=no"
    if warm:
        spec += f",warm={warm}"
    engine.scheduler.spec_string = spec
    return engine


def _host_on_workers(
    name: str,
    *,
    hash_name: str,
    workers: int | None,
    batch_size: int,
    iterator: str,
    fixed_padding: bool,
    hooks: EngineHooks | None,
    cache: bool = True,
    warm: int = 0,
) -> FleetSearchEngine:
    """``pool`` and ``parallel``: the dispatcher over one ``host`` device
    whose worker set has ``workers`` processes (1: the device thread
    itself)."""
    engine = FleetSearchEngine(
        "host",
        hash_name=hash_name,
        batch_size=batch_size,
        iterator=iterator,
        fixed_padding=fixed_padding,
        hooks=hooks,
        cache=cache,
        warm=warm,
        workers=workers,
    )
    return _describe_as(
        engine, name, iterator=iterator, cache=cache, warm=warm, workers=True
    )


@register_engine(
    "parallel",
    description="One host device hashing on `workers` pinned processes "
    "(default: the cpuset); the SALTED-CPU analogue",
    aliases={"w": "workers"},
)
def _build_parallel(
    hash_name: str = "sha3-256",
    workers: int | None = None,
    batch_size: int = 8192,
    iterator: str = "unrank",
    fixed_padding: bool = True,
    hooks: EngineHooks | None = None,
) -> FleetSearchEngine:
    return _host_on_workers(
        "parallel",
        hash_name=hash_name,
        workers=workers,
        batch_size=batch_size,
        iterator=iterator,
        fixed_padding=fixed_padding,
        hooks=hooks,
    )


@register_engine(
    "pool",
    description="One host device hashing on `workers` pinned processes "
    "that read the shared mask plans",
    aliases={"w": "workers"},
)
def _build_pool(
    hash_name: str = "sha3-256",
    workers: int | None = None,
    batch_size: int = 16384,
    iterator: str = "unrank",
    fixed_padding: bool = True,
    hooks: EngineHooks | None = None,
    cache: bool = True,
    warm: int = 0,
) -> FleetSearchEngine:
    return _host_on_workers(
        "pool",
        hash_name=hash_name,
        workers=workers,
        batch_size=batch_size,
        iterator=iterator,
        fixed_padding=fixed_padding,
        hooks=hooks,
        cache=cache,
        warm=warm,
    )


@register_engine(
    "sched",
    description="Deadline-aware continuous-batching scheduler: the one-device fleet",
)
def _build_sched(
    hash_name: str = "sha3-256",
    batch_size: int = 16384,
    iterator: str = "unrank",
    fixed_padding: bool = True,
    hooks: EngineHooks | None = None,
    cache: bool = True,
    warm: int = 0,
    chunk_ranks: int = 131072,
    max_queue: int = 256,
    deep_distance: int = 3,
    fairness_cap: float = 0.75,
    aging_seconds: float = 30.0,
) -> FleetSearchEngine:
    engine = FleetSearchEngine(
        "host",
        hash_name=hash_name,
        batch_size=batch_size,
        iterator=iterator,
        fixed_padding=fixed_padding,
        hooks=hooks,
        cache=cache,
        warm=warm,
        chunk_ranks=chunk_ranks,
        max_queue=max_queue,
        deep_distance=deep_distance,
        fairness_cap=fairness_cap,
        aging_seconds=aging_seconds,
    )
    return _describe_as(engine, "sched", iterator=iterator, cache=cache)


@register_engine(
    "fleet",
    description="Health-checked multi-device dispatch with re-dispatch and hedging",
)
def _build_fleet(
    *devices: str,
    hash_name: str = "sha3-256",
    batch_size: int = 8192,
    iterator: str = "unrank",
    fixed_padding: bool = True,
    hooks: EngineHooks | None = None,
    cache: bool = True,
    warm: int = 0,
    chunk_ranks: int = 131072,
    max_queue: int = 256,
    deep_distance: int = 3,
    fairness_cap: float = 0.75,
    aging_seconds: float = 30.0,
    heartbeat_seconds: float = 0.02,
    hedge_factor: float = 4.0,
    hedge_min_seconds: float = 0.05,
    no_device_grace: float = 2.0,
    failure_threshold: int = 2,
    recovery_seconds: float = 0.25,
    fault_seed: int = 0,
    slow_factor: float = 8.0,
) -> FleetSearchEngine:
    return FleetSearchEngine(
        *devices,
        hash_name=hash_name,
        batch_size=batch_size,
        iterator=iterator,
        fixed_padding=fixed_padding,
        hooks=hooks,
        cache=cache,
        warm=warm,
        chunk_ranks=chunk_ranks,
        max_queue=max_queue,
        deep_distance=deep_distance,
        fairness_cap=fairness_cap,
        aging_seconds=aging_seconds,
        heartbeat_seconds=heartbeat_seconds,
        hedge_factor=hedge_factor,
        hedge_min_seconds=hedge_min_seconds,
        no_device_grace=no_device_grace,
        failure_threshold=failure_threshold,
        recovery_seconds=recovery_seconds,
        fault_seed=fault_seed,
        slow_factor=slow_factor,
    )


@register_engine(
    "cluster",
    description="MPI-style distributed SALTED search over in-process ranks",
    aliases={"r": "ranks"},
)
def _build_cluster(
    ranks: int = 2,
    hash_name: str = "sha3-256",
    batch_size: int = 16384,
    interconnect: Interconnect | None = None,
    fault_injector=None,
    hooks: EngineHooks | None = None,
) -> ClusterSearchExecutor:
    return ClusterSearchExecutor(
        ranks,
        hash_name=hash_name,
        batch_size=batch_size,
        interconnect=interconnect,
        fault_injector=fault_injector,
        hooks=hooks,
    )


@register_engine(
    "original",
    description="Key-agile batched original-RBC baseline (AES/SPECK/ChaCha20)",
)
def _build_original(
    keygen_name: str = "aes-128",
    batch_size: int = 8192,
    hooks: EngineHooks | None = None,
) -> BatchOriginalRBCSearch:
    return BatchOriginalRBCSearch(
        keygen_name=keygen_name, batch_size=batch_size, hooks=hooks
    )


def _register_modeled(name: str, model_factory, description: str) -> None:
    @register_engine(name, description=description)
    def _build_modeled(
        hash_name: str = "sha3-256",
        batch_size: int = 16384,
        mode: str = "exhaustive",
        hooks: EngineHooks | None = None,
    ) -> ModeledDeviceEngine:
        return ModeledDeviceEngine(
            model_factory(),
            hash_name=hash_name,
            batch_size=batch_size,
            mode=mode,
            hooks=hooks,
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
