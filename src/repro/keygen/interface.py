"""Uniform key-generation interface consumed by the RBC engines.

The original RBC search is *algorithm aware*: it calls the key generator
once per candidate seed, so the engine is parameterized over this
interface. RBC-SALTED calls it exactly once, after the search, on the
salted seed — which is precisely why it no longer cares which algorithm
sits behind the interface (the paper's Section 3 argument).

``relative_cost`` expresses the measured per-operation cost relative to
one SHA-1 hash; the device models use it to time the original-RBC
baseline, and the values are calibrated from the paper's Table 7 rows
(see ``repro.devices.calibration``).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

from repro.keygen.aes import aes128_encrypt_block
from repro.keygen.chacha20 import chacha20_block
from repro.keygen.lwe import ToyModuleLWE
from repro.keygen.speck import speck128_encrypt_block

__all__ = ["KeyGenerator", "get_keygen", "available_keygens"]

_FIXED_PLAINTEXT = bytes.fromhex("524243205075626c6963526573706f6e")  # "RBC PublicRespon"
_FIXED_NONCE = b"\x00" * 12


@dataclass(frozen=True)
class KeyGenerator:
    """A named public-response generator: 32-byte seed -> public bytes."""

    name: str
    #: Cost of one key generation in units of one SHA-1 hash (calibrated).
    relative_cost: float
    _fn: Callable[[bytes], bytes] = field(repr=False)

    def public_key(self, seed: bytes) -> bytes:
        """The public response for ``seed`` (deterministic)."""
        if len(seed) != 32:
            raise ValueError("RBC seeds are 32 bytes")
        return self._fn(seed)


def _tweaked_plaintext(seed: bytes) -> bytes:
    # public_key() has checked the seed is 32 bytes, so both are 16 long.
    return bytes(a ^ b for a, b in zip(seed[16:], _FIXED_PLAINTEXT, strict=True))


def _aes_response(seed: bytes) -> bytes:
    # Prior-work convention: seed halves form key and plaintext tweak.
    return aes128_encrypt_block(seed[:16], _tweaked_plaintext(seed))


def _chacha_response(seed: bytes) -> bytes:
    return chacha20_block(seed, 0, _FIXED_NONCE)[:32]


def _speck_response(seed: bytes) -> bytes:
    return speck128_encrypt_block(seed[:16], _tweaked_plaintext(seed))


_LIGHT = ToyModuleLWE("light")
_SABER = ToyModuleLWE("saber")
_DILITHIUM = ToyModuleLWE("dilithium3")

#: relative_cost calibration: from Table 7 GPU times per candidate —
#: AES 2.56 s / u(5) seeds = 0.285 ns; LightSABER 14.03 s / u(4) = 79 ns;
#: Dilithium3 27.91 s / u(4) = 157 ns — divided by the SHA-1 per-hash cost
#: (1.56 s / u(5) = 0.174 ns).
_REGISTRY: dict[str, KeyGenerator] = {}


def _register(gen: KeyGenerator) -> KeyGenerator:
    _REGISTRY[gen.name] = gen
    return gen


AES128_KEYGEN = _register(KeyGenerator("aes-128", 0.285 / 0.174, _aes_response))
CHACHA20_KEYGEN = _register(KeyGenerator("chacha20", 0.40 / 0.174, _chacha_response))
SPECK_KEYGEN = _register(KeyGenerator("speck-128", 0.22 / 0.174, _speck_response))
LIGHTSABER_KEYGEN = _register(
    KeyGenerator("lightsaber", 79.0 / 0.174, _LIGHT.public_key)
)
SABER_KEYGEN = _register(KeyGenerator("saber", 110.0 / 0.174, _SABER.public_key))
DILITHIUM3_KEYGEN = _register(
    KeyGenerator("dilithium3", 157.0 / 0.174, _DILITHIUM.public_key)
)


def get_keygen(name: str) -> KeyGenerator:
    """Look up a registered key generator by name."""
    key = name.lower()
    if key not in _REGISTRY:
        raise KeyError(f"unknown keygen {name!r}; available: {sorted(_REGISTRY)}")
    return _REGISTRY[key]


def available_keygens() -> list[str]:
    """Names of all registered key generators."""
    return sorted(_REGISTRY)
