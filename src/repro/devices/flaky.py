"""A fault-injecting wrapper for device models.

:class:`FlakyDeviceModel` wraps an analytic device model (GPU / APU /
CPU) with the fault stream of a
:class:`~repro.reliability.faults.DeviceFaultInjector`: a scheduled
failure raises :class:`DeviceFailure` mid-search, a scheduled slowdown
stretches the modeled time (thermal throttling, a sick HBM stack) — and
the energy account scales with it. Behind a ``flaky-<token>`` fleet
device the same stream fails that device's batches, which the
dispatcher answers with quarantine and re-dispatch.
"""

from __future__ import annotations

import dataclasses

from repro.devices.base import DeviceModel, SearchTiming

__all__ = ["DeviceFailure", "FlakyDeviceModel"]


class DeviceFailure(RuntimeError):
    """The accelerator died (or was killed) during a search."""

    def __init__(self, device: str, search_index: int):
        super().__init__(f"device {device!r} failed on search #{search_index}")
        self.device = device
        self.search_index = search_index


#: Inner-model names ``from_token`` resolves (lazy factory per name).
_MODEL_NAMES = ("gpu", "apu", "cpu", "host")


def _resolve_model(name: str) -> DeviceModel:
    if name == "gpu":
        from repro.devices.gpu import GPUModel

        return GPUModel()
    if name == "apu":
        from repro.devices.apu import APUModel

        return APUModel()
    if name == "cpu":
        from repro.devices.cpu import CPUModel

        return CPUModel()
    if name == "host":
        from repro.devices.host import HostDeviceModel

        # Reduced probe scale: token resolution must be cheap, and the
        # fleet only consults the wrapper's fault stream, not the model's
        # calibrated throughput.
        return HostDeviceModel(hash_names=("sha1",), probe_seeds=4096, batch_size=4096)
    raise ValueError(
        f"unknown device model {name!r}; known: {', '.join(_MODEL_NAMES)}"
    )


class FlakyDeviceModel(DeviceModel):
    """A simulated accelerator that can fail or throttle mid-search."""

    def __init__(self, inner: DeviceModel, injector):
        self.inner = inner
        self.injector = injector
        self.spec = inner.spec
        self.searches_attempted = 0
        self.failures_injected = 0
        self.slowdowns_injected = 0

    @classmethod
    def from_token(
        cls,
        token: str,
        *,
        seed: int = 0,
        episodes: int = 1,
        episode_length: int = 6,
        horizon: int = 200,
    ) -> "FlakyDeviceModel":
        """Build a flaky model from a device token like ``"flaky-gpu"``.

        This is what makes flaky devices composable in engine specs:
        ``fleet:gpu,flaky-apu`` resolves each token independently, so a
        fleet can mix healthy and fault-injected devices without the
        caller wiring up a :class:`~repro.reliability.faults.FaultPlan`
        by hand.
        """
        # Lazy: the reliability package imports the net layer, whose
        # dispatcher imports this module.
        from repro.reliability.faults import FaultPlan, FaultSpec

        spec = FaultSpec(
            name=f"token:{token}",
            device_failure_episodes=episodes,
            device_failure_length=episode_length,
        )
        injector = FaultPlan(spec, seed).device_injector(horizon)
        return cls(_resolve_model(token.removeprefix("flaky-")), injector)

    def _fault(self) -> str | None:
        self.searches_attempted += 1
        fault = self.injector.next()
        if fault == "fail":
            self.failures_injected += 1
            raise DeviceFailure(self.spec.name, self.searches_attempted - 1)
        if fault == "slow":
            self.slowdowns_injected += 1
        return fault

    def _slow_factor(self, fault: str | None) -> float:
        if fault != "slow":
            return 1.0
        return self.injector.spec.device_slow_factor

    def search_time(self, hash_name, distance, mode="exhaustive", **kwargs) -> float:
        """Modeled seconds, stretched or aborted per the fault stream."""
        fault = self._fault()
        return self.inner.search_time(hash_name, distance, mode, **kwargs) * (
            self._slow_factor(fault)
        )

    def health_probe(self) -> bool:
        """Healthy unless the *current* search index sits in an episode.

        Peeks without consuming the fault stream: probes tell the fleet
        whether the device would fail right now, they do not advance
        which searches fail.
        """
        index = self.injector.calls
        return not any(lo <= index < hi for lo, hi in self.injector.episodes)

    def simulate_search(self, hash_name, distance, mode="exhaustive", **kwargs) -> SearchTiming:
        """Full timing record; a throttled search burns energy for longer."""
        fault = self._fault()
        timing = self.inner.simulate_search(hash_name, distance, mode, **kwargs)
        factor = self._slow_factor(fault)
        if factor == 1.0:
            return timing
        return dataclasses.replace(
            timing,
            device=f"{timing.device} (throttled x{factor:g})",
            search_seconds=timing.search_seconds * factor,
            energy_joules=timing.energy_joules * factor,
        )
