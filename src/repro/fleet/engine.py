"""The dispatcher behind the engine protocol: ``fleet:`` and ``sched:``.

:class:`FleetSearchEngine` satisfies
:class:`~repro.engines.result.SearchEngine`, so the registry, the
wrappers, the serving layer, and the equivalence tests treat the
dispatcher like any other engine. A blocking :meth:`~FleetSearchEngine.search`
submits one request and waits for its ticket; the serving layer uses
:meth:`~FleetSearchEngine.submit` to keep many requests in flight. The
``sched`` spec builds the same engine over a single ``host`` device, and
``pool`` / ``parallel`` that engine with a chosen number of scan
threads.

The host's cores belong to the engine, not to a device: one
:class:`~repro.fleet.batcher.WorkerSet`, a thread per CPU of the
process's cpuset, hashes the wide batches of every device (a modeled
``gpu`` or a second ``host`` is still this machine). A batch is rank
ranges; the candidates are made where they are hashed, so the engine
keeps no mask plans.

Device tokens compose in the spec string, so a mixed fleet is one line::

    fleet:host,host                    # two identical host devices
    fleet:gpu,flaky-apu,hash=sha1      # healthy GPU + fault-injected APU
    fleet:host,slow-host,hedge=6       # a straggler to exercise hedging

Token grammar (resolved per device, left to right):

* ``host`` / ``gpu`` / ``apu`` / ``cpu`` — a healthy device; the name
  picks the placement weight (host/gpu 1.0, apu 0.6, cpu 0.3);
* ``flaky-<name>`` — the same device wrapped in
  :meth:`~repro.devices.flaky.FlakyDeviceModel.from_token`, scheduling
  deterministic failure episodes from ``fault_seed``;
* ``slow-<name>`` — permanently throttled (every batch slowed by
  ``slow_factor``), never failing — the canonical hedging straggler.
"""

from __future__ import annotations

import weakref

from repro.devices.flaky import FlakyDeviceModel
from repro.engines.result import SearchResult
from repro.runtime.executor import BatchSearchExecutor
from repro.tenancy.context import TenantContext
from repro.tenancy.registry import TenantRegistry

from repro.fleet.batcher import WorkerSet
from repro.fleet.policy import PolicyConfig, SchedulingPolicy
from repro.fleet.scheduler import ScheduledSearch
from repro.fleet.units import DEFAULT_CHUNK_RANKS

from repro.fleet.device import FleetDevice
from repro.fleet.dispatcher import FleetScheduler

__all__ = ["FleetSearchEngine", "DEVICE_WEIGHTS"]

#: Placement weight per base device name (relative modeled throughput).
DEVICE_WEIGHTS = {"host": 1.0, "gpu": 1.0, "apu": 0.6, "cpu": 0.3}


def _base_name(token: str) -> str:
    for prefix in ("flaky-", "slow-"):
        if token.startswith(prefix):
            return token[len(prefix) :]
    return token


def _build_device(
    token: str,
    index: int,
    algo,
    *,
    fixed_padding: bool,
    fairness_window: int,
    fault_seed: int,
    slow_factor: float,
    failure_threshold: int,
    recovery_seconds: float,
    workers: WorkerSet,
) -> FleetDevice:
    base = _base_name(token)
    if base not in DEVICE_WEIGHTS:
        raise ValueError(
            f"unknown device token {token!r}; base must be one of: "
            f"{', '.join(sorted(DEVICE_WEIGHTS))}"
        )
    model = None
    if token != base:
        model = FlakyDeviceModel.from_token(
            token, seed=fault_seed + index, slow_factor=slow_factor
        )
    from repro.reliability.breaker import CircuitBreaker

    return FleetDevice(
        f"{token}-{index}",
        algo,
        fixed_padding=fixed_padding,
        model=model,
        weight=DEVICE_WEIGHTS[base],
        fairness_window=fairness_window,
        breaker=CircuitBreaker(
            failure_threshold=failure_threshold,
            recovery_seconds=recovery_seconds,
        ),
        workers=workers,
    )


class FleetSearchEngine:
    """Continuous-batching, health-checked dispatch as a drop-in engine."""

    def __init__(
        self,
        *devices: str,
        hash_name: str = "sha3-256",
        batch_size: int = 8192,
        fixed_padding: bool = True,
        chunk_ranks: int = DEFAULT_CHUNK_RANKS,
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
        tenants: TenantRegistry | None = None,
        workers: int | None = None,
    ):
        tokens = tuple(devices) if devices else ("host", "host")
        executor = BatchSearchExecutor(
            hash_name=hash_name,
            batch_size=batch_size,
            fixed_padding=fixed_padding,
        )
        policy = SchedulingPolicy(
            PolicyConfig(
                deep_distance=deep_distance,
                fairness_cap=fairness_cap,
                aging_seconds=aging_seconds if aging_seconds > 0 else None,
            ),
            tenants=tenants,
        )
        # ``workers=None`` is the cpuset; only ``pool`` / ``parallel`` say.
        #: The scan threads behind every device.
        self.worker_set = WorkerSet(executor.algo, fixed_padding, workers)
        # A dropped engine must not leave its threads to interpreter exit.
        self._close_pool = weakref.finalize(self, self.worker_set.close)
        try:
            fleet_devices = [
                _build_device(
                    token,
                    index,
                    executor.algo,
                    fixed_padding=fixed_padding,
                    fairness_window=policy.config.fairness_window,
                    fault_seed=fault_seed,
                    slow_factor=slow_factor,
                    failure_threshold=failure_threshold,
                    recovery_seconds=recovery_seconds,
                    workers=self.worker_set,
                )
                for index, token in enumerate(tokens)
            ]
            spec = (
                f"fleet:{','.join(tokens)},hash={executor.hash_name},bs={batch_size}"
            )
            self.scheduler = FleetScheduler(
                fleet_devices,
                executor,
                chunk_ranks=max(chunk_ranks, batch_size),
                max_queue=max_queue,
                policy=policy,
                heartbeat_seconds=heartbeat_seconds,
                hedge_factor=hedge_factor if hedge_factor > 0 else None,
                hedge_min_seconds=hedge_min_seconds,
                no_device_grace=no_device_grace,
                spec_string=spec,
            )
        except BaseException:
            self._close_pool()
            raise

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

    @property
    def workers(self) -> int:
        """Cores a wide batch is hashed on (1: the device thread itself)."""
        return self.worker_set.workers

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
        """Close the underlying fleet (see ``FleetScheduler.close``), then
        join the scan threads; safe to call twice."""
        self.scheduler.close(drain=drain)
        self._close_pool()

    def __enter__(self) -> "FleetSearchEngine":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
