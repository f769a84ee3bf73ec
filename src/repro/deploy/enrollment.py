"""Deterministic cross-process enrollment.

A real deployment splits the protocol across OS processes, but both
sides still need to agree on the enrolled PUF images: the server enrolls
the fleet into its image store at startup, and each load-generator process
reconstructs the *same* PUF (same seed, same masking reads) to produce
digests the server can actually search for. The functions here are that
shared contract — every parameter that feeds the PUF's RNG lives in one
place, so the two sides cannot drift.

The serving stack built here wraps its authority in the shared
false-authentication tripwire
(:class:`~repro.reliability.tripwire.VerifyingAuthority`).
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

import numpy as np

from repro.core import (
    CertificateAuthority,
    RBCSearchService,
    RegistrationAuthority,
)
from repro.core.protocol import ClientDevice
from repro.core.salting import HashChainSalt
from repro.deploy.topology import TopologySpec
from repro.engines import build_engine
from repro.keygen.interface import get_keygen
from repro.puf.image_db import EncryptedImageDatabase
from repro.puf.model import SRAMPuf
from repro.puf.ternary import TernaryMask, enroll_with_masking
from repro.reliability.tripwire import VerifyingAuthority
from repro.tenancy.context import DEFAULT_TENANT, namespaced_key

__all__ = [
    "client_identity",
    "fleet_index_of",
    "tenant_for",
    "build_fleet_record",
    "build_client_device",
    "enroll_topology_fleet",
    "build_serving_stack",
    "VerifyingAuthority",
]

#: Seed stride between client PUFs (every harness fleet uses it too).
_CLIENT_SEED_STRIDE = 1_000_003


def client_identity(index: int) -> str:
    """The deterministic client id for fleet slot ``index``."""
    return f"dep-{index:04d}"


def fleet_index_of(client_id: str) -> int:
    """Inverse of :func:`client_identity`; raises ValueError otherwise.

    The enrollment wire frame names a fleet slot by its client id; the
    server maps it back to the slot index to rebuild the deterministic
    PUF image — no plaintext enrollment data ever crosses the wire.
    """
    prefix, _, digits = client_id.partition("-")
    if prefix != "dep" or not digits.isdigit():
        raise ValueError(f"not a fleet identity: {client_id!r}")
    return int(digits)


def tenant_for(index: int, tenants: tuple[str, ...]) -> str:
    """Which tenant fleet slot ``index`` belongs to (round-robin)."""
    if not tenants:
        return DEFAULT_TENANT
    return tenants[index % len(tenants)]


def build_fleet_record(
    seed: int,
    index: int,
    num_cells: int,
    *,
    reads: int = 8,
    instability_threshold: float = 0.05,
    identity: Callable[[int], str] = client_identity,
) -> tuple[str, SRAMPuf, TernaryMask]:
    """(client_id, puf, mask) for one fleet slot — both sides call this.

    The PUF is seeded from (storm seed, slot index) and the masking
    enrollment consumes a fixed number of reads, so a server process and
    a load-generator process that never share memory still derive the
    byte-identical ternary mask. The keyword defaults are the deployed
    fleet's — both of its sides must leave them alone; the in-process
    storms (:func:`repro.storm.enrolled_fleet`) pass their own.
    """
    puf = SRAMPuf(
        num_cells=num_cells,
        stable_error=0.001,
        seed=seed * _CLIENT_SEED_STRIDE + index,
    )
    mask = enroll_with_masking(
        puf,
        address=0,
        window=num_cells,
        reads=reads,
        instability_threshold=instability_threshold,
    )
    return identity(index), puf, mask


def build_client_device(
    seed: int,
    index: int,
    num_cells: int,
    noise_target_distance: int | None,
    **record: Any,
) -> tuple[str, ClientDevice, TernaryMask]:
    """A load-generator's client for one fleet slot.

    ``noise_target_distance`` plants the PUF read exactly that many bit
    flips from the enrolled image (the evaluation rig's knob for shell
    depth), so the trace controls how deep each search must go; ``None``
    leaves the read to the PUF's own noise. ``record`` is
    :func:`build_fleet_record`'s keywords.
    """
    client_id, puf, mask = build_fleet_record(seed, index, num_cells, **record)
    device = ClientDevice(
        client_id,
        puf,
        noise_target_distance=noise_target_distance,
        rng=np.random.default_rng((seed, index)),
    )
    return client_id, device, mask


def enroll_topology_fleet(
    authority: CertificateAuthority,
    topology: TopologySpec,
    seed: int,
    skip_existing: bool = False,
) -> int:
    """Enroll the full deterministic fleet under its tenant namespaces.

    ``skip_existing`` is the durable-restart path: a server whose store
    recovered its records from checkpoint + WAL must not re-enroll them
    (that would bump every version and churn the WAL on every restart) —
    it only fills the slots recovery did not produce. Returns how many
    slots were actually enrolled.
    """
    enrolled = 0
    for index in range(topology.clients):
        client_id, _puf, mask = build_fleet_record(
            seed, index, topology.num_cells
        )
        tenant = tenant_for(index, topology.tenants)
        tenant_id = None if tenant == DEFAULT_TENANT else tenant
        if skip_existing and namespaced_key(tenant_id, client_id) in (
            authority.image_db
        ):
            continue
        authority.enroll(client_id, mask, tenant_id=tenant_id)
        enrolled += 1
    return enrolled


def build_serving_stack(
    topology: TopologySpec, seed: int, data_dir: str | None = None
):
    """(verifying_authority, dispatcher_engine) for one server.

    One engine per server: the fleet dispatcher over the topology's
    device tokens, and the authority's search service holds that same
    engine — so
    ``max_distance`` / ``time_threshold`` and the engine live in one
    object — while the second element slots into the
    ConcurrentCAServer's ``scheduler`` seat.

    With ``topology.durability`` set and a ``data_dir`` given, the
    enrollment store is a WAL-backed
    :class:`~repro.durability.store.DurableImageStore`: construction
    recovers checkpoint + WAL, and the fleet enrollment below only fills
    the slots recovery did not restore — a kill-9'd server comes back
    with its acknowledged enrollments (and version counters) intact.
    """
    image_db = EncryptedImageDatabase(b"deploy-master-k!")
    durable = bool(topology.durability) and data_dir is not None
    if durable:
        from repro.durability.store import DurableImageStore

        image_db = DurableImageStore(
            data_dir, b"deploy-master-k!", fsync=topology.durability
        )
    engine = build_engine(
        "fleet:" + ",".join(topology.devices),
        hash_name=topology.hash_name,
        batch_size=topology.batch_size,
        max_queue=topology.max_queue,
    )
    authority = CertificateAuthority(
        search_service=RBCSearchService(
            engine,
            max_distance=topology.max_distance,
            time_threshold=topology.time_budget,
        ),
        salt=HashChainSalt(),
        keygen=get_keygen("aes-128"),
        registration_authority=RegistrationAuthority(),
        image_db=image_db,
        hash_name=topology.hash_name,
    )
    enroll_topology_fleet(authority, topology, seed, skip_existing=durable)
    return VerifyingAuthority(authority), engine
