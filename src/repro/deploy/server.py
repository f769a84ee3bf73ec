"""CA server process.

``python -m repro.deploy.server`` is one server of a deployment
topology: it builds the deterministic serving stack for the storm seed
(authority + false-authentication tripwire + engine per the topology's
engine mode), wraps it in a :class:`~repro.net.concurrent.ConcurrentCAServer`
and a :class:`~repro.net.sockets.SocketCAServer`, and prints::

    DEPLOY-READY <host> <port>

once the listener is accepting — the supervisor blocks on that line, so
an ephemeral port (``--port 0``) round-trips to the parent without a
race.

A durable topology (``durability`` set, ``--data-dir`` given) recovers
its WAL-backed enrollment store *before* announcing readiness and
prints the recovery outcome first::

    DEPLOY-RECOVERED <records> <seconds>

so the storm runner can read the recovery cost straight off the child's
output. Such a server also serves ``enroll_request`` frames: the frame
names a deterministic fleet slot, the server rebuilds the PUF image
locally (nothing secret on the wire), and the reply is sent only after
the record is durable under the WAL's fsync policy.

Shutdown is signal-safe by construction: the SIGTERM/SIGINT handler
only sets a :class:`threading.Event` (handlers run on the main thread
between bytecodes — doing real teardown there can deadlock against a
thread holding the server lock). The main thread observes the event and
runs the ordinary ``close(drain=True)`` path: in-flight searches drain
within their time budgets, queued work is shed with a typed reason, the
process prints ``DEPLOY-DRAINED`` and exits 0. SIGKILL skips all of
this — which is the point of the WAL.
"""

from __future__ import annotations

import argparse
import signal
import sys
import threading

from repro.deploy.enrollment import (
    build_fleet_record,
    build_serving_stack,
    fleet_index_of,
    tenant_for,
)
from repro.deploy.loadgen import spec_from_json
from repro.deploy.topology import TopologySpec
from repro.net.concurrent import ConcurrentCAServer
from repro.net.messages import EnrollReply, EnrollRequest
from repro.net.sockets import SocketCAServer
from repro.tenancy.context import DEFAULT_TENANT, namespaced_key
from repro.tenancy.registry import TenantContext, TenantRegistry

__all__ = ["build_server", "serve"]


def _enroll_handler(verifying, concurrent, spec: TopologySpec, seed: int):
    """The server side of the enroll frame: rebuild, enroll, ack durable."""
    lock = threading.Lock()

    def handle(request: EnrollRequest) -> EnrollReply:
        index = fleet_index_of(request.client_id)
        tenant = tenant_for(index, spec.tenants)
        tenant_id = None if tenant == DEFAULT_TENANT else tenant
        key = namespaced_key(tenant_id, request.client_id)
        db = verifying.image_db
        if request.probe:
            version = db.version_of(key) if key in db else -1
            return EnrollReply(
                client_id=request.client_id, version=version, enrolled=False
            )
        _cid, _puf, mask = build_fleet_record(seed, index, spec.num_cells)
        with lock:
            # Returning from enroll() is the ack: under a durable store
            # the record has already hit the WAL per the fsync policy.
            verifying.enroll(request.client_id, mask, tenant_id=tenant_id)
            version = db.version_of(key)
        concurrent.metrics.record_enrollment()
        return EnrollReply(
            client_id=request.client_id, version=version, enrolled=True
        )

    return handle


def build_server(
    spec: TopologySpec,
    seed: int,
    host: str = "127.0.0.1",
    port: int = 0,
    data_dir: str | None = None,
) -> SocketCAServer:
    """The full serving stack for one server process (not yet started).

    The returned server carries a ``recovery_info`` attribute: the
    durable store's :class:`~repro.durability.log.RecoveryResult`, or
    ``None`` for an in-memory topology.
    """
    verifying, engine = build_serving_stack(spec, seed, data_dir=data_dir)
    tenants = None
    if spec.tenants:
        tenants = TenantRegistry(
            TenantContext(tenant_id=name) for name in spec.tenants
        )
    concurrent = ConcurrentCAServer(
        verifying,
        max_queue=spec.max_queue,
        scheduler=engine,
        tenants=tenants,
    )
    store = verifying.image_db
    recovery = getattr(store, "recovery", None)
    if recovery is not None:
        concurrent.metrics.record_recovery(
            recovery.recovered_records, recovery.recovery_seconds
        )
    server = SocketCAServer(
        concurrent,
        host=host,
        port=port,
        false_auth_counter=lambda: verifying.false_authentications,
        enroll_handler=_enroll_handler(verifying, concurrent, spec, seed),
        extra_counters=getattr(store, "counters", None),
    )
    server.recovery_info = recovery
    server.durable_store = store if recovery is not None else None
    return server


def serve(
    spec: TopologySpec,
    seed: int,
    host: str = "127.0.0.1",
    port: int = 0,
    data_dir: str | None = None,
    ready_stream=None,
) -> int:
    """Run one server until SIGTERM/SIGINT; returns the exit code."""
    stream = ready_stream if ready_stream is not None else sys.stdout
    stop = threading.Event()

    def _on_signal(_signum, _frame):
        # Only flip the flag: the handler may interrupt a thread that
        # holds server locks; teardown happens on the main loop below.
        stop.set()

    signal.signal(signal.SIGTERM, _on_signal)
    signal.signal(signal.SIGINT, _on_signal)

    server = build_server(spec, seed, host=host, port=port, data_dir=data_dir)
    recovery = server.recovery_info
    if recovery is not None:
        print(
            f"DEPLOY-RECOVERED {recovery.recovered_records} "
            f"{recovery.recovery_seconds:.6f}",
            file=stream,
            flush=True,
        )
    bound_host, bound_port = server.start()
    print(f"DEPLOY-READY {bound_host} {bound_port}", file=stream, flush=True)
    try:
        while not stop.wait(timeout=0.2):
            pass
    finally:
        server.close(drain=True)
        if server.durable_store is not None:
            # Clean exit: compact the WAL so the *next* start replays
            # nothing. A SIGKILL never reaches this line — recovery
            # earns its keep there.
            server.durable_store.checkpoint()
            server.durable_store.close()
    print("DEPLOY-DRAINED", file=stream, flush=True)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.deploy.server",
        description="one CA server process of a deployment topology",
    )
    parser.add_argument("--spec", required=True, help="TopologySpec JSON")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=0, help="0 binds an ephemeral port"
    )
    parser.add_argument(
        "--data-dir",
        default=None,
        help="durable-store directory (required for a durable topology)",
    )
    args = parser.parse_args(argv)
    return serve(
        spec_from_json(args.spec),
        args.seed,
        host=args.host,
        port=args.port,
        data_dir=args.data_dir,
    )


if __name__ == "__main__":
    sys.exit(main())
