"""The storm kit: what every in-process serving harness decides, once.

A storm *scenario* (device loss, shard loss, noisy neighbor, FIFO vs the
dispatcher, the demos) owns its fault schedule and its verdicts; the kit
owns request -> outcome: :class:`Request` and :class:`Outcome`,
:func:`planted` (the seeded workload), :func:`enrolled_fleet` (a CA with
a PUF fleet enrolled), :func:`set_device_alive` (a device lost or back,
and seen to be), :func:`drive` (submit everything, settle
everything, lose nothing silently — over the three submit shapes
:func:`ticket_submit`, :func:`server_submit`, :func:`search_submit`),
:func:`summarize`, and the invariants every serving gate asserts
(:func:`false_authentications`, :func:`invariant_failures`).

No module that serves requests imports this one.
"""

from __future__ import annotations

import concurrent.futures
import threading
import time
from collections.abc import Callable, Collection, Iterable, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro._bitutils import SEED_BITS, flip_bits
from repro.analysis.metrics import percentile
from repro.engines.result import SearchResult
from repro.refusals import RequestShed

if TYPE_CHECKING:
    from repro.core.authentication import CertificateAuthority
    from repro.core.protocol import ClientDevice
    from repro.puf.ternary import TernaryMask

__all__ = [
    "SHALLOW_DISTANCE", "Request", "Outcome", "planted", "enrolled_fleet",
    "set_device_alive", "ticket_submit", "server_submit", "search_submit",
    "drive", "summarize", "false_authentications", "invariant_failures",
]

#: "Shallow" for workloads and reports: the interactive search depths the
#: paper's threshold comfortably covers on a single device.
SHALLOW_DISTANCE = 2

#: ``submit(request)`` hands back a dispatcher ticket or a ``Future``:
#: anything with ``add_done_callback`` and ``result(timeout)``.
Submit = Callable[["Request"], Any]


@dataclass(frozen=True)
class Request:
    """One authentication request of a storm."""

    client_id: str
    digest: bytes
    #: How deep the search may go, and how deep the answer actually lies.
    max_distance: int
    planted_distance: int
    #: Where the search starts; ``None`` when only the server's enrollment
    #: directory knows.
    base_seed: bytes | None = None
    tenant: str | None = None
    deadline_seconds: float | None = None


@dataclass(frozen=True)
class Outcome:
    """What became of one request."""

    request: Request
    #: ``found | not_found | timed_out | shed | lost | error``.
    status: str
    #: The shed reason, or the exception's type name for ``error``.
    detail: str = ""
    seed: bytes | None = None
    distance: int | None = None
    #: Both clocks, as offsets from the start of the drive.
    submitted_seconds: float = 0.0
    settled_seconds: float = 0.0
    #: The backend's own reply, for callers that print its telemetry.
    result: Any = None

    @property
    def served(self) -> bool:
        """The backend answered — as opposed to shed, lost or error."""
        return self.status in ("found", "not_found", "timed_out")

    @property
    def latency_seconds(self) -> float:
        """Submit to settle — the request's own wait."""
        return self.settled_seconds - self.submitted_seconds


def planted(
    algo: Any,
    requests: int,
    depths: Sequence[int],
    seed: int,
    *,
    authority: CertificateAuthority | None = None,
    tenant: str | None = None,
    deadline_seconds: float | None = None,
) -> list[Request]:
    """A deterministic fleet of requests, each planted ``depths`` (cycled)
    bit flips from its base seed.

    Base seeds are drawn from the seeded rng, or — given an ``authority``
    — are the enrolled seeds of its clients ``<tenant or "wl">-0000…``.
    ``deadline_seconds`` is attached to the shallow requests only: the
    interactive clients are the ones with latency expectations.
    """
    import numpy as np

    if requests < 1:
        raise ValueError("requests must be positive")
    if not depths or any(d < 0 for d in depths):
        raise ValueError("depths must be non-negative")
    rng = np.random.default_rng(seed)
    fleet = []
    for index in range(requests):
        client_id = f"{tenant or 'wl'}-{index:04d}"
        distance = depths[index % len(depths)]
        if authority is None:
            base_seed = rng.bytes(SEED_BITS // 8)
        else:
            base_seed = authority.enrolled_seed(client_id, tenant_id=tenant)
        flips = rng.choice(SEED_BITS, size=distance, replace=False)
        digest = algo.hash_seed(flip_bits(base_seed, [int(b) for b in flips]))
        deadline = deadline_seconds if distance <= SHALLOW_DISTANCE else None
        fleet.append(
            Request(client_id, digest, distance, distance, base_seed, tenant, deadline)
        )
    return fleet


def enrolled_fleet(
    seed: int,
    clients: int,
    image_db: Any,
    search_service: Any = None,
    *,
    hash_name: str = "sha1",
    num_cells: int = 2048,
    noise_target_distance: int | None = None,
    tenant_of: Callable[[int], str | None] = lambda index: None,
    reads: int = 48,
    instability_threshold: float = 0.02,
    identity: Callable[[int], str] = "client-{:04d}".format,
) -> tuple[CertificateAuthority, list[tuple[str, ClientDevice, TernaryMask]]]:
    """A CA over ``image_db`` with ``clients`` seeded PUF devices enrolled:
    the authority, and ``(client_id, device, mask)`` per fleet slot — the
    deployed fleet's records (:mod:`repro.deploy.enrollment`) under this
    storm's masking reads, instability threshold and identities.
    """
    from repro.core import CertificateAuthority, RegistrationAuthority
    from repro.core.salting import HashChainSalt
    from repro.deploy.enrollment import build_client_device
    from repro.keygen.interface import get_keygen

    authority = CertificateAuthority(
        search_service=search_service,
        salt=HashChainSalt(),
        keygen=get_keygen("aes-128"),
        registration_authority=RegistrationAuthority(),
        image_db=image_db,
        hash_name=hash_name,
    )
    fleet = [
        build_client_device(
            seed, index, num_cells, noise_target_distance, reads=reads,
            instability_threshold=instability_threshold, identity=identity,
        )
        for index in range(clients)
    ]
    for index, (client_id, _device, mask) in enumerate(fleet):
        authority.enroll(client_id, mask, tenant_id=tenant_of(index))
    return authority, fleet


def set_device_alive(
    fleet: Any, device: str, alive: bool, timeout: float = 5.0
) -> bool:
    """Kill or revive one fleet device, then wait (bounded) until the
    dispatcher's health monitor has quarantined — or reinstated — it:
    two heartbeats, or a breaker recovery interval and one probe, well
    under a second on the fleet's defaults. Whether it got there."""
    (fleet.revive_device if alive else fleet.kill_device)(device)
    deadline = time.perf_counter() + timeout
    while (fleet.device(device).health == "healthy") != alive:
        if time.perf_counter() > deadline:
            return False
        time.sleep(0.005)
    return True


def ticket_submit(engine: Any, time_budget: float | None = None) -> Submit:
    """Requests as tickets of a dispatcher engine (``sched:`` / ``fleet:``)."""
    return lambda request: engine.submit(
        request.base_seed, request.digest, request.max_distance,
        time_budget=time_budget, deadline_seconds=request.deadline_seconds,
        client_id=request.client_id,
    )


def server_submit(server: Any, tripwire: Any = None) -> Submit:
    """Requests as futures of a ``ConcurrentCAServer``; each digest is first
    recorded with the false-authentication ``tripwire``, if there is one."""

    def submit(request: Request) -> Any:
        if tripwire is not None:
            tripwire.record_digest(request.client_id, request.digest, request.tenant)
        return server.submit(
            request.client_id, request.digest,
            deadline_seconds=request.deadline_seconds, tenant_id=request.tenant,
        )

    return submit


def search_submit(engine: Any, time_budget: float | None = None) -> Submit:
    """Requests served one after another by a blocking ``engine.search`` —
    the FIFO reference: every submit returns an already-settled future."""

    def submit(request: Request) -> Any:
        future: concurrent.futures.Future[Any] = concurrent.futures.Future()
        future.set_result(engine.search(
            request.base_seed, request.digest, request.max_distance,
            time_budget=time_budget,
        ))
        return future

    return submit


def _outcome(
    request: Request,
    submitted: float,
    settled: float,
    result: Any = None,
    error: Exception | None = None,
) -> Outcome:
    """A reply (``SearchResult`` / ``AuthenticationResult``), or the
    exception that took its place, as an :class:`Outcome`."""
    detail = ""
    seed: bytes | None = None
    distance: int | None = None
    # Two timeout classes before Python 3.11, one since.
    if isinstance(error, TimeoutError | concurrent.futures.TimeoutError):
        status = "lost"
    elif isinstance(error, RequestShed):
        status, detail = "shed", error.reason
    elif error is not None:
        status, detail = "error", type(error).__name__
    else:
        if isinstance(result, SearchResult):
            found, seed = result.found, result.seed
        else:  # the key was issued; the seed stays with the authority
            found = result.authenticated
        status = "found" if found else "timed_out" if result.timed_out else "not_found"
        distance = result.distance
    return Outcome(request, status, detail, seed, distance, submitted, settled, result)


def drive(
    submit: Submit,
    requests: Iterable[Request],
    *,
    timeout: float,
    on_settled: Callable[[int], None] | None = None,
) -> list[Outcome]:
    """Submit every request back to back, then settle every one.

    Returns one outcome per request, in request order. A refusal — raised
    by ``submit`` itself or through the handle — is ``shed`` with its
    reason; any other exception is ``error`` with its type name; a handle
    still unsettled ``timeout`` seconds after the last submit is ``lost``.
    Each settle instant is stamped by the handle's done-callback (on the
    thread that settles it), so neither collection order nor a slower
    predecessor inflates it. ``on_settled(count)`` runs once per request,
    as the ``count``-th one settles — a scenario's "kill the device at
    the k-th completion" hook.
    """
    start = time.perf_counter()
    lock = threading.Lock()
    stamps: dict[int, float] = {}

    def settle(index: int) -> float:
        # First caller stamps: the done-callback, or — because waiters
        # wake before callbacks run — the collection loop below.
        with lock:
            if index in stamps:
                return stamps[index]
            stamps[index] = time.perf_counter() - start
            count = len(stamps)
        if on_settled is not None:
            on_settled(count)
        return stamps[index]

    outcomes: dict[int, Outcome] = {}
    pending = []
    for index, request in enumerate(requests):
        submitted = time.perf_counter() - start
        try:
            handle = submit(request)
        except Exception as exc:
            outcomes[index] = _outcome(request, submitted, settle(index), error=exc)
            continue
        handle.add_done_callback(lambda _handle, index=index: settle(index))
        pending.append((index, request, submitted, handle))
    deadline = time.perf_counter() + timeout
    for index, request, submitted, handle in pending:
        try:
            result = handle.result(max(0.0, deadline - time.perf_counter()))
        except Exception as exc:
            outcomes[index] = _outcome(request, submitted, settle(index), error=exc)
        else:
            outcomes[index] = _outcome(request, submitted, settle(index), result)
    return [outcomes[index] for index in sorted(outcomes)]


def summarize(
    outcomes: Collection[Outcome], *, since_submit: bool = False
) -> dict[str, Any]:
    """Outcome counts, shed reasons, error kinds, and latency percentiles
    over the served requests.

    Latencies read "since every request arrived at the start of the
    drive" — or, with ``since_submit``, since the request's own submit.
    """
    served = [o for o in outcomes if o.served]
    shed_reasons: dict[str, int] = {}
    for outcome in outcomes:
        if outcome.status == "shed":
            shed_reasons[outcome.detail] = shed_reasons.get(outcome.detail, 0) + 1
    stats: dict[str, Any] = {
        "count": len(outcomes),
        "served": len(served),
        "found": sum(o.status == "found" for o in outcomes),
        "timed_out": sum(o.status == "timed_out" for o in outcomes),
        "shed": sum(shed_reasons.values()),
        "lost": sum(o.status == "lost" for o in outcomes),
        "shed_reasons": shed_reasons,
        "errors": sorted(o.detail for o in outcomes if o.status == "error"),
    }
    if served:
        latencies = [
            o.latency_seconds if since_submit else o.settled_seconds for o in served
        ]
        for q in (50, 95, 99):
            stats[f"p{q}_seconds"] = round(percentile(latencies, q), 6)
        stats["max_seconds"] = round(max(latencies), 6)
    return stats


def false_authentications(algo: Any, outcomes: Iterable[Outcome]) -> int:
    """Found seeds that do not hash to the digest their client submitted."""
    return sum(
        o.seed is not None and algo.hash_seed(o.seed) != o.request.digest
        for o in outcomes
    )


def invariant_failures(
    *,
    false_authentications: int = 0,
    untyped: int | Collection[str] = 0,
    lost: int = 0,
) -> list[str]:
    """The invariants every serving gate asserts, as named failures.

    ``untyped`` counts refusals that escaped the typed-error vocabulary;
    pass the offending kinds instead of a count to have them named.
    """
    failures = []
    if false_authentications:
        failures.append(f"{false_authentications} false authentication(s)")
    count = untyped if isinstance(untyped, int) else len(untyped)
    if count:
        kinds = "" if isinstance(untyped, int) else f": {sorted(set(untyped))}"
        failures.append(f"{count} untyped refusal(s){kinds}")
    if lost:
        failures.append(f"{lost} request(s) lost")
    return failures
