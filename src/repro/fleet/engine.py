"""The dispatcher behind the engine protocol: ``fleet:`` and ``sched:``.

:class:`FleetSearchEngine` satisfies
:class:`~repro.engines.result.SearchEngine`, so the registry, the
wrappers, the serving layer, and the equivalence tests treat the
dispatcher like any other engine. A blocking :meth:`~FleetSearchEngine.search`
submits one request and waits for its ticket; the serving layer uses
:meth:`~FleetSearchEngine.submit` to keep many requests in flight. The
``sched`` spec builds the same engine over one ``host``, and ``pool`` /
``parallel`` that engine with a chosen number of cores.

A ``host`` is one device that hashes on ``workers`` cores (default:
every CPU of the process's cpuset): its thread pulls rank ranges with
room for ``batch_size`` rows per core, and each range is one C call in
which that thread and the kernel's pool of helper threads claim chunks
of it, so one search runs on every core at once and no core waits on
the interpreter lock between ranges. Without the compiled kernel a
``host`` hashes on one core. A batch is rank ranges; the candidates are
walked where they are hashed, so the engine keeps no mask plans (and,
with the compiled kernel, no mask tables either).

Device tokens compose in the spec string, so a mixed fleet is one line::

    fleet:host                         # one device on every core of the cpuset
    fleet:gpu,flaky-apu,hash=sha1      # healthy GPU + fault-injected APU

Token grammar (resolved per device, left to right):

* ``host`` — one healthy device hashing on ``workers`` cores;
* ``gpu`` / ``apu`` / ``cpu`` — one healthy device;
* ``flaky-<name>`` — the same device (a ``host`` keeps its cores)
  wrapped in :meth:`~repro.devices.flaky.FlakyDeviceModel.from_token`,
  scheduling deterministic failure episodes seeded by the device's index.
"""

from __future__ import annotations

import os
import weakref

from repro.devices.flaky import FlakyDeviceModel
from repro.engines.result import SearchResult
from repro.hashes import compiled
from repro.runtime.executor import BatchSearchExecutor
from repro.runtime.maskplan import mask_tables
from repro.tenancy.context import TenantContext
from repro.tenancy.registry import TenantRegistry

from repro.fleet.policy import PolicyConfig, SchedulingPolicy
from repro.fleet.scheduler import ScheduledSearch

from repro.fleet.device import FleetDevice
from repro.fleet.dispatcher import FleetScheduler

__all__ = ["FleetSearchEngine", "DEVICE_NAMES", "default_worker_count"]

#: The base device names a token may carry.
DEVICE_NAMES = frozenset({"host", "gpu", "apu", "cpu"})


def default_worker_count() -> int:
    """Worker count respecting the process's cpuset, not the machine.

    ``os.cpu_count()`` reports every core in the box; in containers and
    CI with restricted cpusets that over-subscribes by the cgroup ratio.
    """
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _base_name(token: str) -> str:
    return token.removeprefix("flaky-")


def _build_device(
    token: str,
    index: int,
    algo,
    *,
    fixed_padding: bool,
    fairness_window: int,
    failure_threshold: int,
    recovery_seconds: float,
    workers: int,
) -> FleetDevice:
    model = None
    if token != _base_name(token):
        model = FlakyDeviceModel.from_token(token, seed=index)
    from repro.reliability.breaker import CircuitBreaker

    return FleetDevice(
        f"{token}-{index}",
        algo,
        fixed_padding=fixed_padding,
        model=model,
        fairness_window=fairness_window,
        breaker=CircuitBreaker(
            failure_threshold=failure_threshold,
            recovery_seconds=recovery_seconds,
        ),
        workers=workers if _base_name(token) == "host" else 1,
    )


class FleetSearchEngine:
    """Continuous-batching, health-checked dispatch as a drop-in engine."""

    def __init__(
        self,
        *devices: str,
        hash_name: str = "sha3-256",
        batch_size: int = 8192,
        fixed_padding: bool = True,
        max_queue: int = 256,
        fairness_cap: float = 0.75,
        aging_seconds: float = 30.0,
        heartbeat_seconds: float = 0.02,
        no_device_grace: float = 2.0,
        failure_threshold: int = 2,
        recovery_seconds: float = 0.25,
        tenants: TenantRegistry | None = None,
        workers: int | None = None,
    ):
        tokens = tuple(devices) if devices else ("host",)
        for token in tokens:
            if _base_name(token) not in DEVICE_NAMES:
                raise ValueError(
                    f"unknown device token {token!r}; base must be one of: "
                    f"{', '.join(sorted(DEVICE_NAMES))}"
                )
        #: Cores each ``host`` device hashes on (``None``: the cpuset).
        self.workers = workers if workers is not None else default_worker_count()
        if self.workers < 1:
            raise ValueError("workers must be positive")
        executor = BatchSearchExecutor(
            hash_name=hash_name,
            batch_size=batch_size,
            fixed_padding=fixed_padding,
        )
        policy = SchedulingPolicy(
            PolicyConfig(
                fairness_cap=fairness_cap,
                aging_seconds=aging_seconds if aging_seconds > 0 else None,
            ),
            tenants=tenants,
        )
        # Loaded here, before any device thread races to build it; the
        # NumPy mask tables serve only a hash the kernel does not scan,
        # and on hashlib a host hashes on one core.
        kernel = compiled.load()
        pooled = kernel is not None and executor.algo.name in kernel.hashes
        if not pooled:
            mask_tables()
        fleet_devices = [
            _build_device(
                token,
                index,
                executor.algo,
                fixed_padding=fixed_padding,
                fairness_window=policy.config.fairness_window,
                failure_threshold=failure_threshold,
                recovery_seconds=recovery_seconds,
                workers=self.workers if pooled else 1,
            )
            for index, token in enumerate(tokens)
        ]
        spec = f"fleet:{','.join(tokens)},hash={executor.hash_name},bs={batch_size}"
        self.scheduler = FleetScheduler(
            fleet_devices,
            executor,
            max_queue=max_queue,
            policy=policy,
            heartbeat_seconds=heartbeat_seconds,
            no_device_grace=no_device_grace,
            spec_string=spec,
        )
        # A dropped engine must not leave its threads to interpreter exit.
        self._close_fleet = weakref.finalize(self, self.scheduler.close)

    # -- engine geometry (what wrappers and engine_target read) ---------

    @property
    def algo(self):
        """The hash algorithm every fleet device searches with."""
        return self.scheduler.executor.algo

    @property
    def hash_name(self) -> str:
        return self.scheduler.hash_name

    @property
    def batch_size(self) -> int:
        return self.scheduler.batch_size

    def describe(self) -> str:
        """Canonical spec string for this engine's configuration."""
        return self.scheduler.describe()

    def throughput_probe(self, num_seeds: int = 50000, **kwargs) -> object:
        """Kernel throughput of one device's path (see executor)."""
        return self.scheduler.executor.throughput_probe(num_seeds, **kwargs)

    # -- searching ------------------------------------------------------

    def search(
        self,
        base_seed: bytes,
        target_digest: bytes,
        max_distance: int,
        time_budget: float | None = None,
    ) -> SearchResult:
        """One blocking search through the fleet's shared work stream."""
        ticket = self.scheduler.submit(
            base_seed,
            target_digest,
            max_distance,
            time_budget=time_budget,
        )
        return ticket.result()

    def submit(
        self,
        base_seed: bytes,
        target_digest: bytes,
        max_distance: int,
        *,
        time_budget: float | None = None,
        deadline_seconds: float | None = None,
        client_id: str = "",
        tenant: TenantContext | str | None = None,
    ) -> ScheduledSearch:
        """Non-blocking admission; returns the fleet's ticket."""
        return self.scheduler.submit(
            base_seed,
            target_digest,
            max_distance,
            time_budget=time_budget,
            deadline_seconds=deadline_seconds,
            client_id=client_id,
            tenant=tenant,
        )

    # -- lifecycle ------------------------------------------------------

    def close(self, drain: bool = True) -> None:
        """Close the underlying fleet and join its device threads (see
        ``FleetScheduler.close``); safe to call twice."""
        self.scheduler.close(drain=drain)
        self._close_fleet.detach()

    def __enter__(self) -> "FleetSearchEngine":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
