"""Load-generator process.

``python -m repro.deploy.loadgen`` is one client-side process of a
deployment storm. It regenerates the storm's deterministic trace
(:mod:`repro.deploy.trace`), keeps the fleet slots it owns (slot mod
number of load generators), and replays its slice in real time: each
entry fires at its arrival offset, builds the deterministic client
device for its slot with the entry's planted shell depth, and runs the
full Figure 1 flow over a real TCP connection through the storm's WAN
shim — per-tenant identity, per-entry deadline, bounded typed retries.

Every outcome is classified into a typed bucket; anything that escapes
the type system lands in ``untyped`` with its traceback, which the storm
runner treats as a hard failure. Results are written as JSON to
``--output`` and the process prints ``LOADGEN-DONE`` on success so the
supervisor can tell a clean drain from a crash.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time
import traceback
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict

import numpy as np

from repro.deploy.enrollment import build_client_device
from repro.deploy.topology import TopologySpec
from repro.deploy.trace import TraceEntry, generate_trace
from repro.deploy.wan import build_shim
from repro.net.client import NetworkClient
from repro.net.errors import ConnectionLost, MessageDropped, TransportError
from repro.net.sockets import RemoteCAServer, SocketTransport
from repro.refusals import Refusal
from repro.reliability.retry import (
    DeadlineExceeded,
    RetriesExhausted,
    RetryPolicy,
)

__all__ = ["run_loadgen", "classify_failure", "spec_to_json", "spec_from_json"]

#: Concurrent in-flight requests per load-generator process.
_MAX_IN_FLIGHT = 16


def spec_to_json(spec: TopologySpec) -> str:
    """A TopologySpec as the JSON string shipped on child argv."""
    return json.dumps(asdict(spec), sort_keys=True)


def spec_from_json(raw: str) -> TopologySpec:
    data = json.loads(raw)
    data["devices"] = tuple(data["devices"])
    data["tenants"] = tuple(data["tenants"])
    return TopologySpec(**data)


def classify_failure(exc: BaseException) -> str:
    """Map an exception to its typed outcome bucket (never raises): a
    refusal is its wire kind (``shed:<reason>`` for a shed)."""
    if isinstance(exc, RetriesExhausted):
        inner = classify_failure(exc.last_error) if exc.last_error else "error"
        return f"retries-exhausted:{inner}"
    if isinstance(exc, DeadlineExceeded):
        return "deadline"
    refusal = Refusal.of(exc)
    if refusal is not None:
        return f"shed:{refusal.reason}" if refusal.kind == "shed" else refusal.kind
    if isinstance(exc, MessageDropped):
        return "dropped"
    if isinstance(exc, ConnectionLost):
        return "connection-lost"
    if isinstance(exc, TransportError):
        return "transport"
    return f"untyped:{type(exc).__name__}"


def _run_entry(
    entry: TraceEntry,
    spec: TopologySpec,
    seed: int,
    servers: list[tuple[str, int]],
) -> dict:
    """One authentication round; returns its outcome record."""
    host, port = servers[entry.client_index % len(servers)]
    shim = build_shim(spec.wan_profile, seed, link_index=entry.index)
    transport = SocketTransport(host, port, shim=shim)
    _client_id, device, mask = build_client_device(
        seed, entry.client_index, spec.num_cells, entry.shell_depth
    )
    client = NetworkClient(
        device,
        transport,
        reference_mask=mask,
        retry_policy=RetryPolicy(
            max_attempts=4,
            base_backoff_seconds=0.05,
            max_backoff_seconds=0.5,
            jitter_fraction=0.3,
        ),
        rng=np.random.default_rng((seed, entry.index, 0xBACC0FF)),
        deadline_seconds=entry.deadline_seconds,
        tenant_id=entry.tenant,
    )
    record = {
        "index": entry.index,
        "client_id": entry.client_id,
        "tenant": entry.tenant,
        "shell_depth": entry.shell_depth,
        "deadline_seconds": entry.deadline_seconds,
    }
    start = time.monotonic()
    try:
        result = client.authenticate(RemoteCAServer(transport))
    except Exception as exc:
        outcome = classify_failure(exc)
        record["outcome"] = outcome
        if outcome.startswith("untyped:"):
            record["traceback"] = traceback.format_exc()
    else:
        if result.authenticated:
            record["outcome"] = "authenticated"
        elif result.timed_out:
            record["outcome"] = "timed-out"
        else:
            record["outcome"] = "denied"
        record["distance"] = result.distance
    finally:
        record["latency_seconds"] = time.monotonic() - start
        record["attempts"] = client.last_attempts
        record["wan_faults"] = len(shim.fault_log)
        transport.close()
    return record


def run_loadgen(
    spec: TopologySpec,
    seed: int,
    servers: list[tuple[str, int]],
    requests: int,
    duration_seconds: float,
    loadgen_index: int = 0,
    num_loadgens: int = 1,
    time_scale: float = 1.0,
) -> dict:
    """Replay this process's slice of the trace; returns the result doc.

    ``time_scale`` compresses or stretches arrival offsets (the trace is
    shaped for ``duration_seconds``; scale 0 fires everything at once).
    """
    trace = generate_trace(spec, seed, requests, duration_seconds)
    owned = [
        e
        for e in trace.entries
        if e.client_index % num_loadgens == loadgen_index
    ]
    records: list[dict] = []
    records_lock = threading.Lock()
    # One physical device cannot run two authentications at once (and
    # the server rejects duplicate in-flight client ids as busy), so
    # entries for the same fleet slot serialize on a per-slot lock.
    # Slots are partitioned across load generators, so this is global.
    slot_locks = {e.client_index: threading.Lock() for e in owned}
    start = time.monotonic()
    with ThreadPoolExecutor(max_workers=_MAX_IN_FLIGHT) as pool:

        def fire(entry: TraceEntry) -> None:
            with slot_locks[entry.client_index]:
                record = _run_entry(entry, spec, seed, servers)
            with records_lock:
                records.append(record)

        for entry in owned:
            due = start + entry.offset_seconds * time_scale
            delay = due - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            pool.submit(fire, entry)
    records.sort(key=lambda r: r["index"])
    outcomes: dict[str, int] = {}
    for record in records:
        key = record["outcome"]
        outcomes[key] = outcomes.get(key, 0) + 1
    return {
        "loadgen_index": loadgen_index,
        "profile": spec.wan_profile,
        "seed": seed,
        "entries_owned": len(owned),
        "wall_seconds": time.monotonic() - start,
        "outcomes": dict(sorted(outcomes.items())),
        "records": records,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.deploy.loadgen",
        description="one load-generator process of a deployment storm",
    )
    parser.add_argument("--spec", required=True, help="TopologySpec JSON")
    parser.add_argument(
        "--server",
        action="append",
        required=True,
        metavar="HOST:PORT",
        help="server address (repeat, one per server process)",
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--requests", type=int, required=True)
    parser.add_argument("--duration", type=float, required=True)
    parser.add_argument("--loadgen-index", type=int, default=0)
    parser.add_argument("--num-loadgens", type=int, default=1)
    parser.add_argument("--time-scale", type=float, default=1.0)
    parser.add_argument("--output", required=True)
    args = parser.parse_args(argv)

    spec = spec_from_json(args.spec)
    servers = []
    for token in args.server:
        host, _, port = token.rpartition(":")
        servers.append((host, int(port)))
    result = run_loadgen(
        spec,
        args.seed,
        servers,
        requests=args.requests,
        duration_seconds=args.duration,
        loadgen_index=args.loadgen_index,
        num_loadgens=args.num_loadgens,
        time_scale=args.time_scale,
    )
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=2, sort_keys=True)
    print(f"LOADGEN-DONE {args.output}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
