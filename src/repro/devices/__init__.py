"""Device simulators — the hardware-substitution layer.

We have no A100, Gemini APU, or 64-core EPYC, so these models supply the
paper's platforms (DESIGN.md §2). Each model executes the *structure* of
its algorithm — kernel-per-distance launches, PE allocation, occupancy,
early-exit flag traffic, work partitioning — and consumes per-(device,
hash) throughput constants calibrated from the paper's own measurements
(:mod:`repro.devices.calibration`). Absolute d=5 times therefore match
the paper by construction; the reproduced findings are the *relations*
the structure produces: who wins where, parameter sensitivity, scaling
curves, energy ordering.
"""

from repro.devices.base import DeviceSpec, SearchTiming, DeviceModel
from repro.devices.calibration import (
    PLATFORM_A_CPU,
    PLATFORM_A_GPU,
    PLATFORM_B_APU,
    COMM_TIME_SECONDS,
)
from repro.devices.gpu import GPUModel
from repro.devices.cpu import CPUModel
from repro.devices.apu import APUModel
from repro.devices.multi_gpu import MultiGPUModel, speedup_curve
from repro.devices.energy import EnergyModel
from repro.devices.associative import AssociativeProcessor
from repro.devices.host import HostDeviceModel
from repro.devices.bitserial_search import AssociativeSearchEngine, associative_match
from repro.devices.bitserial import (
    sha1_bitserial,
    sha3_256_bitserial,
    hash_cost_profile,
)
from repro.devices.flaky import DeviceFailure, FlakyDeviceModel

__all__ = [
    "DeviceSpec",
    "SearchTiming",
    "DeviceModel",
    "GPUModel",
    "CPUModel",
    "APUModel",
    "MultiGPUModel",
    "speedup_curve",
    "EnergyModel",
    "AssociativeProcessor",
    "HostDeviceModel",
    "AssociativeSearchEngine",
    "associative_match",
    "sha1_bitserial",
    "sha3_256_bitserial",
    "hash_cost_profile",
    "PLATFORM_A_CPU",
    "PLATFORM_A_GPU",
    "PLATFORM_B_APU",
    "COMM_TIME_SECONDS",
    "DeviceFailure",
    "FlakyDeviceModel",
]
