"""PUF substrate — the statistical stand-in for hardware PUFs.

The paper's client reads a 256-bit stream from an SRAM-style PUF attached
over USB; the stream differs from the server's enrolled *PUF image* by a
few erratic bits (typically <= 5 after masking). The protocol never sees
the physics — only a bit stream with a Hamming-distance distribution — so
this package models exactly that interface:

* :mod:`repro.puf.model` — per-cell bit-error-rate model, enrollment,
  noisy readout (the "digital fingerprint" with manufacturing variation);
* :mod:`repro.puf.ternary` — TAPKI masking of unstable cells (Section 2.1);
* :mod:`repro.puf.noise` — deliberate noise injection up to a target
  Hamming distance (Section 4.1 and the paper's future-work hardening);
* :mod:`repro.puf.image_db` — the CA's encrypted PUF-image database.
"""

from repro.puf.arbiter import ArbiterPuf
from repro.puf.environment import (
    EnvironmentalConditions,
    EnvironmentalPuf,
    stress_factor,
)
from repro.puf.fuzzy_extractor import HelperData, RepetitionFuzzyExtractor
from repro.puf.image_db import EncryptedImageDatabase
from repro.puf.model import PUFReadout, SRAMPuf
from repro.puf.noise import inject_noise_to_distance
from repro.puf.ring_oscillator import RingOscillatorPuf
from repro.puf.ternary import TernaryMask, enroll_with_masking

__all__ = [
    "SRAMPuf",
    "ArbiterPuf",
    "RingOscillatorPuf",
    "PUFReadout",
    "TernaryMask",
    "enroll_with_masking",
    "inject_noise_to_distance",
    "EncryptedImageDatabase",
    "EnvironmentalConditions",
    "EnvironmentalPuf",
    "stress_factor",
    "RepetitionFuzzyExtractor",
    "HelperData",
]
