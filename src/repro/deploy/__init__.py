"""Multi-process deployment harness.

Everything before this package measured the serving stack inside one
process: threads for concurrency, a virtual clock for the WAN, function
calls for the wire. This package deploys the same stack for real — N
:class:`~repro.net.concurrent.ConcurrentCAServer` processes listening on
TCP, M fleet devices behind each, client load generators as separate OS
processes, and an emulated WAN (latency/jitter/loss) on every link — so
the protocol's end-to-end latency and failure typing can be measured
under conditions the in-process harness cannot produce: real sockets,
real process crashes, real signal-driven shutdown.

Entry points: ``repro deploy --storm`` (CLI) or
:func:`~repro.deploy.storm.run_deployment_storm` (library) for the
WAN-profile sweep; ``repro deploy --storm --crash`` or
:func:`~repro.deploy.storm.run_crash_storm` for the kill-9
crash-restart storm against WAL-backed durable servers. The storms are
imported explicitly (``repro.deploy.storm``): a server process imports
this package and has no use for its own test harness.
"""

from repro.deploy.wan import WAN_PROFILES, WanProfile, WanShim, build_shim
from repro.deploy.topology import ENGINE_MODES, TopologySpec
from repro.deploy.enrollment import (
    VerifyingAuthority,
    build_client_device,
    build_fleet_record,
    build_serving_stack,
    client_identity,
    enroll_topology_fleet,
    fleet_index_of,
    tenant_for,
)
from repro.deploy.trace import LoadTrace, TraceEntry, generate_trace
from repro.deploy.supervisor import (
    ManagedProcess,
    ProcessSupervisor,
    RestartBudgetExhausted,
    RestartPolicy,
)

__all__ = [
    "WAN_PROFILES",
    "WanProfile",
    "WanShim",
    "build_shim",
    "ENGINE_MODES",
    "TopologySpec",
    "VerifyingAuthority",
    "build_client_device",
    "build_fleet_record",
    "build_serving_stack",
    "client_identity",
    "enroll_topology_fleet",
    "fleet_index_of",
    "tenant_for",
    "LoadTrace",
    "TraceEntry",
    "generate_trace",
    "ManagedProcess",
    "ProcessSupervisor",
    "RestartPolicy",
    "RestartBudgetExhausted",
]
