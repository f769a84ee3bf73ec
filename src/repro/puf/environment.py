"""Environmental effects on PUF reliability: temperature, voltage, aging.

Real SRAM PUFs are enrolled at nominal conditions but read in the field,
where temperature and supply-voltage excursions raise cell flip rates
and aging (NBTI) slowly drifts cells away from their enrolled state.
RBC absorbs all of this as a larger Hamming distance — at the price of
exponentially more search. This module makes the trade measurable:

* :class:`EnvironmentalConditions` — an operating point;
* :func:`stress_factor` — the flip-probability multiplier it induces;
* :class:`EnvironmentalPuf` — wraps any PUF model, scaling its noise
  (and injecting aging drift) per the current conditions.

The response-time consequences feed straight into
:func:`repro.core.complexity.tractable_distance`: the bench shows the
ambient range a given platform can tolerate inside T = 20 s.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.puf.arbiter import ArbiterPuf
from repro.puf.model import PUFReadout, SRAMPuf
from repro.puf.ring_oscillator import RingOscillatorPuf
from repro.puf.ternary import TernaryMask

__all__ = ["EnvironmentalConditions", "stress_factor", "EnvironmentalPuf"]

NOMINAL_TEMPERATURE_C = 25.0
NOMINAL_VOLTAGE = 1.0


@dataclass(frozen=True)
class EnvironmentalConditions:
    """An operating point for a fielded device."""

    temperature_c: float = NOMINAL_TEMPERATURE_C
    supply_voltage: float = NOMINAL_VOLTAGE
    #: Equivalent operating age in years (NBTI-style drift).
    age_years: float = 0.0

    def __post_init__(self) -> None:
        if not -55.0 <= self.temperature_c <= 150.0:
            raise ValueError("temperature outside -55..150 C")
        if not 0.5 <= self.supply_voltage <= 1.5:
            raise ValueError("supply voltage outside 0.5..1.5 of nominal")
        if self.age_years < 0:
            raise ValueError("age must be non-negative")


def stress_factor(conditions: EnvironmentalConditions) -> float:
    """Flip-probability multiplier for an operating point.

    Empirically shaped after published SRAM-PUF reliability studies:
    roughly +1%/°C of noise away from the enrollment temperature, a
    quadratic penalty for supply-voltage deviation, floor at 1.0.
    """
    temperature_term = 0.01 * abs(conditions.temperature_c - NOMINAL_TEMPERATURE_C)
    voltage_term = 8.0 * (conditions.supply_voltage - NOMINAL_VOLTAGE) ** 2
    return 1.0 + temperature_term + voltage_term


class EnvironmentalPuf:
    """Any PUF model, operated away from enrollment conditions.

    Noise scaling applies to *disagreement with the underlying read*:
    each raw read is post-processed with extra flips at rate
    ``base_rate * (factor - 1)``; aging additionally flips a small,
    persistent random subset of cells (drift), reproducing the
    distance-grows-with-age effect.
    """

    def __init__(
        self,
        puf: SRAMPuf | ArbiterPuf | RingOscillatorPuf,
        conditions: EnvironmentalConditions | None = None,
        aging_drift_per_year: float = 0.0005,
        base_noise_rate: float = 0.01,
        rng: np.random.Generator | None = None,
    ):
        self.puf = puf
        self.conditions = (
            conditions if conditions is not None else EnvironmentalConditions()
        )
        self.base_noise_rate = base_noise_rate
        self._rng = rng if rng is not None else np.random.default_rng()
        self.num_cells = puf.num_cells
        # Persistent aging drift: cells that have flipped reference state.
        drift_probability = min(
            1.0, aging_drift_per_year * self.conditions.age_years
        )
        self._drifted = self._rng.random(self.num_cells) < drift_probability

    @property
    def stress(self) -> float:
        """The flip-probability multiplier at the current conditions."""
        return stress_factor(self.conditions)

    def reference_bits(self, address: int, length: int) -> np.ndarray:
        """Enrollment truth — captured at nominal conditions, pre-drift."""
        return self.puf.reference_bits(address, length)

    def read(self, address: int, length: int) -> PUFReadout:
        """A field read at the configured operating point."""
        raw = self.puf.read(address, length)
        extra_rate = self.base_noise_rate * (self.stress - 1.0)
        extra_flips = (self._rng.random(length) < extra_rate).astype(np.uint8)
        drift = self._drifted[address : address + length].astype(np.uint8)
        return PUFReadout(address=address, bits=raw.bits ^ extra_flips ^ drift)

    def read_repeated(self, address: int, length: int, times: int) -> np.ndarray:
        """``(times, length)`` repeated field reads."""
        return np.stack(
            [self.read(address, length).bits for _ in range(times)], axis=0
        )

    def expected_distance(self, mask: TernaryMask, bit_count: int = 256) -> float:
        """Expected Hamming distance of a masked field read vs enrollment."""
        indices = np.flatnonzero(mask.usable)[:bit_count]
        base = getattr(self.puf, "flip_probability", None)
        if base is not None:
            per_cell = base[indices].copy()
        else:
            per_cell = np.full(bit_count, self.base_noise_rate)
        extra = self.base_noise_rate * (self.stress - 1.0)
        # Combined flip probability (XOR of independent flips).
        combined = per_cell + extra - 2 * per_cell * extra
        drifted = self._drifted[indices]
        combined = np.where(drifted, 1.0 - combined, combined)
        return float(combined.sum())
