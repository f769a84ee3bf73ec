"""Declarative deployment topologies.

A :class:`TopologySpec` says *what* to stand up — how many
:class:`~repro.net.concurrent.ConcurrentCAServer` processes, which fleet
devices each one drives, the WAN profile between clients and servers,
and the engine/protocol parameters — without saying *how*; the process
supervisor (:mod:`repro.deploy.supervisor`) and storm runner
(:mod:`repro.deploy.storm`) turn one into real OS processes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.deploy.wan import WAN_PROFILES

__all__ = ["TopologySpec", "ENGINE_MODES"]

#: The dispatcher a server process serves on: ``fleet`` (continuous
#: batching over the topology's device tokens — the default) or
#: ``sched`` (the same dispatcher over one ``host`` device).
ENGINE_MODES = ("fleet", "sched")


@dataclass(frozen=True)
class TopologySpec:
    """One deployment: N server processes × M devices × a WAN profile."""

    #: Number of ConcurrentCAServer OS processes.
    servers: int = 1
    #: Fleet device tokens per server (``fleet`` mode); e.g.
    #: ``("host", "host")`` or ``("host", "flaky-apu")``.
    devices: tuple[str, ...] = ("host", "host")
    #: Name in :data:`~repro.deploy.wan.WAN_PROFILES`.
    wan_profile: str = "lan"
    engine: str = "fleet"
    hash_name: str = "sha1"
    max_distance: int = 2
    num_cells: int = 2048
    batch_size: int = 8192
    #: Admission queue bound per server.
    max_queue: int = 64
    #: Protocol time threshold T per search.
    time_budget: float = 5.0
    #: Enrolled client identities (shared across all servers — every
    #: server enrolls the full deterministic fleet, so any client can be
    #: routed to any server).
    clients: int = 8
    #: Tenant namespaces clients are spread over round-robin; empty
    #: means everything rides the default tenant.
    tenants: tuple[str, ...] = field(default_factory=tuple)
    #: Durability of each server's enrollment store: ``""`` (empty, the
    #: default) keeps the pre-durability in-memory store; otherwise an
    #: fsync-policy token for the WAL-backed store — ``always``,
    #: ``interval[:seconds]``, or ``none`` (WAL without fsync, the lossy
    #: baseline the recovery benchmark contrasts against). A durable
    #: server also needs a ``--data-dir`` at spawn time.
    durability: str = ""

    def __post_init__(self):
        if self.servers < 1:
            raise ValueError("servers must be positive")
        if not self.devices:
            raise ValueError("devices must not be empty")
        if self.engine not in ENGINE_MODES:
            raise ValueError(
                f"engine must be one of {ENGINE_MODES}, got {self.engine!r}"
            )
        if self.wan_profile not in WAN_PROFILES:
            raise ValueError(
                f"unknown WAN profile {self.wan_profile!r}; "
                f"choices: {sorted(WAN_PROFILES)}"
            )
        if self.max_distance < 1:
            raise ValueError("max_distance must be positive")
        if self.clients < 1:
            raise ValueError("clients must be positive")
        if self.time_budget <= 0:
            raise ValueError("time_budget must be positive")
        if self.max_queue < 1:
            raise ValueError("max_queue must be positive")
        if self.durability:
            from repro.durability.wal import FsyncPolicy

            FsyncPolicy.parse(self.durability)  # raises on a bad token

    def with_profile(self, wan_profile: str) -> "TopologySpec":
        """The same topology under a different WAN profile."""
        return replace(self, wan_profile=wan_profile)

    def describe(self) -> str:
        """One line for reports: servers × devices × profile × engine."""
        devices = ",".join(self.devices)
        wal = f", wal={self.durability}" if self.durability else ""
        return (
            f"{self.servers} server(s) x [{devices}] "
            f"over {self.wan_profile} ({self.engine}:{self.hash_name}, "
            f"d<={self.max_distance}, T={self.time_budget:g}s, "
            f"{self.clients} clients{wal})"
        )
