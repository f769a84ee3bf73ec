"""The storm kit (:mod:`repro.storm`): one request, one planted workload,
one enrolled fleet, one submit→settle driver, one summary.

Pins the kit's own behaviour (classification, order, the two clocks),
that the seeded workloads are the parent's byte for byte (fixtures
captured at commit ``fd7058f``), the three defects the kit closes (the
settle-stamp race, ``lost`` as an outcome under both timeout classes,
out-of-order settlement), the device-loss storm repeating field for
field, one composed-fault run with and without the aggressor tenant's
quota, and the import direction: no subsystem imports the runner, and a
serving process imports none of the harness.
"""

import concurrent.futures
import dataclasses
import hashlib
import pathlib
import pkgutil
import subprocess
import sys
import threading
import time

import pytest

from repro.cli import main as cli_main
from repro.core.search import RBCSearchService
from repro.engines import build_engine
from repro.engines.result import SearchResult
from repro.hashes.registry import get_hash
from repro.net.concurrent import ConcurrentCAServer
from repro.net.messages import AuthenticationResult
from repro.puf.image_db import EncryptedImageDatabase
from repro.reliability.tripwire import VerifyingAuthority
from repro.refusals import Refusal, RequestShed
from repro.storm import (
    Request,
    drive,
    enrolled_fleet,
    false_authentications,
    invariant_failures,
    planted,
    summarize,
    ticket_submit,
)
from repro.tenancy.context import TenantContext, TenantQuota
from repro.tenancy.registry import TenantRegistry

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

# -- two tenants at one front door -----------------------------------------

#: The in-quota tenant, and the neighbor that bursts past its budget.
VICTIM_TENANT, AGGRESSOR_TENANT = "victim", "aggressor"


def tenant_storm(victims: int, aggressors: int, search_service, seed: int = 0):
    """A CA with both tenants' fleets enrolled under their namespaces, the
    victims' requests (planted at d = 2), and the storm: every victim
    arriving amid the aggressor's burst of cheap d = 1 requests."""

    def slot(index: int) -> tuple[str, int]:
        if index < victims:
            return VICTIM_TENANT, index
        return AGGRESSOR_TENANT, index - victims

    authority, _fleet = enrolled_fleet(
        seed, victims + aggressors, EncryptedImageDatabase(b"tenancy-storm-mk"),
        search_service, tenant_of=lambda index: slot(index)[0], reads=8,
        instability_threshold=0.05,
        identity=lambda index: "{}-{:04d}".format(*slot(index)),
    )
    algo = get_hash("sha1")
    victim_requests = planted(
        algo, victims, (2,), seed + 1, authority=authority, tenant=VICTIM_TENANT
    )
    aggressor_requests = planted(
        algo, aggressors, (1,), seed + 2, authority=authority,
        tenant=AGGRESSOR_TENANT,
    )
    per_victim = max(1, aggressors // victims)
    storm: list[Request] = []
    for index, victim in enumerate(victim_requests):
        storm += aggressor_requests[index * per_victim : (index + 1) * per_victim]
        storm.append(victim)
    storm += aggressor_requests[victims * per_victim :]
    return authority, victim_requests, storm


def tenant_registry(aggressor_quota: TenantQuota) -> TenantRegistry:
    """The victim without a quota and with the larger fair share; the
    aggressor under ``aggressor_quota`` (``TenantQuota()`` is none)."""
    return TenantRegistry(tenants=(
        TenantContext(VICTIM_TENANT, weight=4.0),
        TenantContext(AGGRESSOR_TENANT, weight=1.0, quota=aggressor_quota),
    ))


def server_submit(server: ConcurrentCAServer, tripwire: VerifyingAuthority):
    """Requests as futures of the front door, each digest first recorded
    with the false-authentication tripwire."""

    def submit(request: Request):
        tripwire.record_digest(request.client_id, request.digest, request.tenant)
        return server.submit(
            request.client_id, request.digest,
            deadline_seconds=request.deadline_seconds, tenant_id=request.tenant,
        )

    return submit


def blocking_submit(engine, time_budget=None):
    """Requests served one after another by a blocking ``engine.search``:
    every submit returns an already-settled future, or raises."""

    def submit(request: Request):
        future = concurrent.futures.Future()
        future.set_result(engine.search(
            request.base_seed, request.digest, request.max_distance,
            time_budget=time_budget,
        ))
        return future

    return submit


# -- fixtures captured from the parent commit ------------------------------

#: ``mixed_workload(get_hash("sha1"), 8, (1, 2, 2, 3), seed=0)``: digests.
PARENT_MIXED_DIGESTS = [
    "6c028bb7171e8bfcbc17818b18d26ec60c67f1a0",
    "a3e282f29321924206193755c8aae9ca7c047d02",
    "cbf9a885df4e103062d0090932a3537ae313ab8d",
    "cfb7d78fb3c6129d27fa6e06119f841bde168d7d",
    "9c6cb96e59365bb473aa8e86b551446b2ad54276",
    "cf72087c59c4076aaa94a6f8698c8643d01ea2c6",
    "e1fd65abd48b5cdbdfc6598f4d481a7a778f05f4",
    "eab131ee427b44c39b60b04e10a9ae982f82a8b6",
]
#: SHA-256 over the eight base seeds above, concatenated.
PARENT_MIXED_BASE_SEEDS = "a7ed86883a986d41a5dd0d906e5f1b7aca0558671eb894c8ea799fa81105ae1e"
#: ``plant_requests`` over ``build_tenant_authority(2, 3, seed=0)``: the
#: victim fleet (distance 2, seed 1) and the aggressor's (distance 1, seed 2).
PARENT_TENANT_DIGESTS = {
    VICTIM_TENANT: [
        "7d5ce4176ac0f36de2903fa969821d92eea80c21",
        "782aea888b69dacc2c13896f17a1dc5ef18cc00f",
    ],
    AGGRESSOR_TENANT: [
        "c17a7c803f12203ca788a8b41c670cdc76756e37",
        "2a4d5a8b86e254e54d37e81e8291b14e35c0e32f",
        "1b9244deeb08befa14e4e40175430eeabc773582",
    ],
}


# -- handles ----------------------------------------------------------------


class Ticket:
    """A dispatcher-ticket-shaped handle, settled by the test.

    ``callbacks_after`` delays the done-callbacks behind the waiters'
    wake-up — the order ``concurrent.futures.Future.set_result`` uses.
    """

    def __init__(self, callbacks_after: float = 0.0):
        self._done = threading.Event()
        self._callbacks = []
        self._callbacks_after = callbacks_after
        self._value = self._error = None

    def settle(self, value=None, error=None):
        self._value, self._error = value, error
        self._done.set()
        time.sleep(self._callbacks_after)
        for callback in self._callbacks:
            callback(self)

    def settle_in(self, seconds: float, value=None, error=None) -> "Ticket":
        threading.Timer(seconds, self.settle, (value, error)).start()
        return self

    def add_done_callback(self, callback):
        self._callbacks.append(callback)

    def result(self, timeout=None):
        if not self._done.wait(timeout):
            raise TimeoutError("scheduled search still in flight")
        if self._error is not None:
            raise self._error
        return self._value


def searched(found=True, timed_out=False, seed=b"\x01" * 32):
    return SearchResult(found, seed if found else None, 1 if found else None,
                        10, 0.01, timed_out=timed_out)


def authenticated(found=True, timed_out=False):
    return AuthenticationResult("c", found, 1 if found else None,
                                b"key" if found else None, 0.01, timed_out)


def requests(count: int) -> list[Request]:
    return [Request(f"c-{i}", b"digest", 1, 1, b"\x00" * 32) for i in range(count)]


# -- the workload -----------------------------------------------------------


class TestPlanted:
    def test_reproduces_the_parents_mixed_workload(self):
        workload = planted(get_hash("sha1"), 8, (1, 2, 2, 3), seed=0)
        assert [r.digest.hex() for r in workload] == PARENT_MIXED_DIGESTS
        assert hashlib.sha256(
            b"".join(r.base_seed for r in workload)
        ).hexdigest() == PARENT_MIXED_BASE_SEEDS
        assert [r.client_id for r in workload[:2]] == ["wl-0000", "wl-0001"]
        assert [r.max_distance for r in workload] == [1, 2, 2, 3, 1, 2, 2, 3]
        assert all(r.planted_distance == r.max_distance for r in workload)
        # A longer fleet extends a shorter one: same draws, in order.
        assert planted(get_hash("sha1"), 10, (1, 2, 2, 3), seed=0)[:8] == workload

    def test_deadline_rides_the_shallow_requests_only(self):
        workload = planted(get_hash("sha1"), 3, (1, 2, 3), 3, deadline_seconds=0.5)
        assert [r.deadline_seconds for r in workload] == [0.5, 0.5, None]

    def test_reproduces_the_parents_tenant_requests(self):
        authority, victims, storm = tenant_storm(2, 3, None, seed=0)
        by_tenant = {
            VICTIM_TENANT: victims,
            AGGRESSOR_TENANT: [r for r in storm if r.tenant == AGGRESSOR_TENANT],
        }
        for tenant, fleet in by_tenant.items():
            assert [r.digest.hex() for r in fleet] == PARENT_TENANT_DIGESTS[tenant]
            assert [r.client_id for r in fleet] == [
                f"{tenant}-{i:04d}" for i in range(len(fleet))
            ]
        # Every victim arrives amid the aggressor's burst.
        assert [r.client_id for r in storm] == [
            "aggressor-0000", "victim-0000", "aggressor-0001", "victim-0001",
            "aggressor-0002",
        ]
        assert victims[0].base_seed == authority.enrolled_seed(
            "victim-0000", tenant_id=VICTIM_TENANT
        )

    @pytest.mark.parametrize("bad", [(0, (1,)), (2, ()), (2, (1, -1))])
    def test_refuses_an_empty_or_negative_fleet(self, bad):
        with pytest.raises(ValueError):
            planted(get_hash("sha1"), *bad, seed=0)


# -- the driver -------------------------------------------------------------

#: What each scripted request does, and the (status, detail) it must get.
SCRIPT = [
    ("found", ("found", "")),
    ("not_found", ("not_found", "")),
    ("timed_out", ("timed_out", "")),
    ("door_shed", ("shed", "saturated")),
    ("runtime_shed", ("shed", "deadline_expired")),
    ("lost", ("lost", "")),
    ("error", ("error", "ValueError")),
]


def scripted(shape: str):
    """A ``submit`` that plays SCRIPT, request by request, on one handle shape."""
    reply = searched if shape != "future" else authenticated
    replies = {
        "found": reply(),
        "not_found": reply(found=False),
        "timed_out": reply(found=False, timed_out=True),
    }
    failures = {
        "runtime_shed": RequestShed(Refusal.DEADLINE_EXPIRED),
        "error": ValueError("boom"),
    }
    plays = iter(SCRIPT)

    def submit(request):
        play, _expected = next(plays)
        if play == "door_shed":
            raise RequestShed(Refusal.SATURATED)
        if shape == "ticket":
            handle = Ticket()
            if play != "lost":
                handle.settle_in(0.01, replies.get(play), failures.get(play))
            return handle
        handle = concurrent.futures.Future()
        if play in replies:
            handle.set_result(replies[play])
        elif play in failures:
            handle.set_exception(failures[play])
        return handle

    return submit


class TestDrive:
    @pytest.mark.parametrize("shape", ["ticket", "future"])
    def test_classifies_every_outcome_in_request_order(self, shape):
        fleet = requests(len(SCRIPT))
        settled = []
        outcomes = drive(scripted(shape), fleet, timeout=0.2,
                         on_settled=settled.append)
        assert [o.request for o in outcomes] == fleet
        assert [(o.status, o.detail) for o in outcomes] == [
            expected for _play, expected in SCRIPT
        ]
        # Exactly one settlement per request, counted 1..n.
        assert sorted(settled) == list(range(1, len(SCRIPT) + 1))
        found = outcomes[0]
        assert found.distance == 1 and found.result is not None
        # A ticket's SearchResult carries the seed; an authentication does not.
        assert found.seed == (b"\x01" * 32 if shape == "ticket" else None)
        assert all(0.0 <= o.submitted_seconds <= o.settled_seconds for o in outcomes)
        stats = summarize(outcomes)
        assert (stats["count"], stats["served"], stats["found"],
                stats["timed_out"], stats["shed"], stats["lost"]) == (7, 3, 1, 1, 2, 1)
        assert stats["shed_reasons"] == {"saturated": 1, "deadline_expired": 1}
        assert stats["errors"] == ["ValueError"]
        assert invariant_failures(untyped=stats["errors"], lost=stats["lost"]) == [
            "1 untyped refusal(s): ['ValueError']", "1 request(s) lost",
        ]

    def test_blocking_search_submit_serves_in_order_since_the_start(self):
        """Futures settled before ``drive`` sees them, and refusals raised
        by ``submit`` itself."""
        class Engine:
            def search(self, base_seed, digest, max_distance, time_budget=None):
                time.sleep(0.02)
                if digest == b"shed":
                    raise RequestShed(Refusal.SHUTDOWN)
                if digest == b"boom":
                    raise KeyError("boom")
                assert time_budget == 1.5
                return searched(found=digest == b"here", timed_out=digest == b"slow")

        fleet = [
            dataclasses.replace(r, digest=d) for r, d in zip(
                requests(5), (b"here", b"gone", b"slow", b"shed", b"boom"), strict=True
            )
        ]
        outcomes = drive(blocking_submit(Engine(), 1.5), fleet, timeout=1.0)
        assert [(o.status, o.detail) for o in outcomes] == [
            ("found", ""), ("not_found", ""), ("timed_out", ""),
            ("shed", "shutdown"), ("error", "KeyError"),
        ]
        # FIFO: every request arrived at t=0 and waits out its predecessors.
        clocks = [o.settled_seconds for o in outcomes]
        assert clocks == sorted(clocks) and clocks[2] >= 0.06
        assert all(o.latency_seconds < 0.06 for o in outcomes)

    def test_real_backends_ticket_future_and_blocking_search(self):
        """One planted and one absent request through each real submit shape."""
        algo = get_hash("sha1")
        here, gone = planted(algo, 2, (1,), seed=5)
        gone = dataclasses.replace(gone, digest=algo.hash_seed(b"\xa5" * 32))
        expected = [("found", here.base_seed is not None), ("not_found", True)]
        with build_engine("sched:sha1,bs=4096") as engine:
            tickets = drive(ticket_submit(engine, 5.0), [here, gone], timeout=30.0)
        blocking = drive(
            blocking_submit(build_engine("batch:sha1,bs=4096")), [here, gone],
            timeout=30.0,
        )
        for outcomes in (tickets, blocking):
            assert [o.status for o in outcomes] == [s for s, _ in expected]
            assert algo.hash_seed(outcomes[0].seed) == here.digest
            assert false_authentications(algo, outcomes) == 0
        forged = [dataclasses.replace(tickets[0], seed=b"\x00" * 32)]
        assert false_authentications(algo, forged) == 1

        authority, victims, _storm = tenant_storm(
            2, 1, RBCSearchService(build_engine("sched:sha1,bs=4096"), 2), seed=0
        )
        stranger = dataclasses.replace(
            victims[1], digest=algo.hash_seed(b"\xa5" * 32)
        )
        tripwire = VerifyingAuthority(authority)
        with ConcurrentCAServer(
            tripwire, tenants=tenant_registry(TenantQuota())
        ) as server:
            futures = drive(
                server_submit(server, tripwire), [victims[0], stranger], timeout=30.0
            )
        assert [o.status for o in futures] == ["found", "not_found"]
        assert futures[0].distance == 2 and futures[0].seed is None
        assert tripwire.false_authentications == 0


class TestTheThreeDefects:
    def test_settle_stamp_race_yields_a_finite_latency(self):
        """``result()`` returns 50 ms before the done-callbacks run — what
        ``Future.set_result`` does, widened by ``ConcurrentCAServer.submit``'s
        earlier ``_release`` callback. The parent's
        ``tenancy.workload.run_requests`` raised ``KeyError`` here."""
        late = []

        def submit(request):
            return Ticket(callbacks_after=0.05).settle_in(0.02, authenticated())

        [outcome] = drive(submit, requests(1), timeout=1.0, on_settled=late.append)
        assert outcome.status == "found"
        assert 0.015 <= outcome.latency_seconds < 0.05
        time.sleep(0.08)  # the late callback must not settle it a second time
        assert late == [1]

    @pytest.mark.parametrize(
        "never_settles, timeout_class",
        [(Ticket, TimeoutError),
         (concurrent.futures.Future, concurrent.futures.TimeoutError)],
        ids=["ticket", "future"],
    )
    def test_a_handle_that_never_settles_is_lost(self, never_settles, timeout_class):
        stuck = never_settles()
        with pytest.raises(timeout_class):
            stuck.result(0)
        handles = iter([Ticket().settle_in(0.01, searched()), stuck,
                        Ticket().settle_in(0.03, searched(found=False))])
        start = time.perf_counter()
        outcomes = drive(lambda request: next(handles), requests(3), timeout=0.1)
        assert time.perf_counter() - start < 1.0
        assert [o.status for o in outcomes] == ["found", "lost", "not_found"]
        assert invariant_failures(lost=summarize(outcomes)["lost"]) == [
            "1 request(s) lost"
        ]

    def test_settling_before_a_predecessor_reports_its_own_latency(self):
        """Collection is in submission order; the clock must not be."""
        handles = iter([Ticket().settle_in(0.15, searched()),
                        Ticket().settle_in(0.01, searched())])
        slow, fast = drive(lambda request: next(handles), requests(2), timeout=2.0)
        assert fast.settled_seconds < 0.1 < slow.settled_seconds
        assert summarize([fast])["p99_seconds"] < 0.1

    def test_fleet_demo_reports_a_lost_request_and_exits_one(
        self, monkeypatch, capsys
    ):
        from repro import cli

        monkeypatch.setattr(
            cli, "drive",
            lambda submit, workload, timeout: drive(
                lambda request: Ticket(), workload, timeout=0.05
            ),
        )
        assert cli_main(["fleet", "--requests", "2", "--depths", "1"]) == 1
        captured = capsys.readouterr()
        assert "wl-0000: lost" in captured.out
        assert "GATE: 2 request(s) lost" in captured.err


# -- the storms are the parent's, and repeat --------------------------------


class TestStormsAreSeedPinned:
    def test_device_loss_storm_twice(self, device_loss_storm):
        """Equal field for field, apart from the dispatcher's own
        counters: real threads, no virtual clock, so how many ranges
        were in flight when the device died varies."""
        first, second = (
            {k: v for k, v in device_loss_storm(seed=0).items() if k != "counters"}
            for _ in range(2)
        )
        assert first == second
        # The parent's schedule and verdicts at seed 0.
        assert first == {
            "victim": "host-1", "killed_after": 3, "revived_after": 8,
            "statuses": ["found"] * 10, "shed_reasons": {}, "lost": 0,
            "false_authentications": 0, "mismatches": 0,
            "victim_reinstated": True,
        }


# -- faults composed --------------------------------------------------------


class TestComposedFaults:
    """What no single fault exercises: a fleet device dies at a quarter
    of the settlements and returns at three quarters, while an aggressor
    tenant bursts at the same front door."""

    @staticmethod
    def storm(quota: TenantQuota):
        engine = build_engine("fleet:host,host,hash=sha1,bs=4096")
        fleet = engine.scheduler
        authority, _victims, storm = tenant_storm(
            8, 8, RBCSearchService(engine, max_distance=2, time_threshold=10.0),
            seed=0,
        )
        tripwire = VerifyingAuthority(authority)

        def switch(settled: int) -> None:
            if settled == len(storm) // 4:
                fleet.kill_device("host-1")
            elif settled == 3 * len(storm) // 4:
                fleet.revive_device("host-1")

        with ConcurrentCAServer(
            tripwire, scheduler=engine, tenants=tenant_registry(quota)
        ) as server:
            outcomes = drive(server_submit(server, tripwire), storm,
                             timeout=60.0, on_settled=switch)
            deadline = time.perf_counter() + 5.0
            while (fleet.device("host-1").health != "healthy"
                   and time.perf_counter() < deadline):
                time.sleep(0.02)
            reinstated = fleet.device("host-1").health == "healthy"
            snapshot = fleet.snapshot()
            served = server.metrics.snapshot()

        assert tripwire.false_authentications == 0
        victims = [o for o in outcomes if o.request.tenant == VICTIM_TENANT]
        assert [o.status for o in victims] == ["found"] * 8
        everyone = summarize(outcomes)
        assert invariant_failures(
            untyped=everyone["errors"], lost=everyone["lost"]
        ) == []
        assert served["redispatched"] >= 1 or (
            snapshot["quarantines"] >= 1 and reinstated
        )
        return summarize(
            [o for o in outcomes if o.request.tenant == AGGRESSOR_TENANT]
        )

    def test_device_loss_while_an_aggressor_tenant_bursts(self):
        """The quota holds the aggressor to its one token; every other
        request of its burst is refused with the typed quota shed."""
        aggressors = self.storm(TenantQuota(lookup_rate=1.0, burst=1.0))
        assert aggressors["shed_reasons"] == {
            Refusal.TENANT_QUOTA.reason: aggressors["shed"]
        }
        assert aggressors["shed"] == 7 and aggressors["found"] == 1

    def test_without_the_quota_every_aggressor_is_admitted(self):
        """The counterfactual: the same storm with the quota removed
        admits the whole burst, so the shed above is the quota's doing."""
        aggressors = self.storm(TenantQuota())
        assert aggressors["shed"] == 0 and aggressors["found"] == 8


# -- import direction -------------------------------------------------------


def in_a_fresh_interpreter(program: str) -> list[str]:
    """The lines ``program`` prints (a clean ``sys.modules``; and CPython
    3.11's ``ast.parse`` trips over a recursion limit Hypothesis moved)."""
    return subprocess.run(
        [sys.executable, "-c", program, str(SRC)], env={"PYTHONPATH": str(SRC)},
        capture_output=True, text=True, check=True, timeout=60,
    ).stdout.splitlines()


#: ``imported(path)``: every module and ``module.name`` the file imports.
IMPORTED_NAMES = (
    "import ast, pathlib, sys\n"
    "src = pathlib.Path(sys.argv[1])\n"
    "def imported(path):\n"
    "    names = set()\n"
    "    for node in ast.walk(ast.parse(path.read_text())):\n"
    "        if isinstance(node, ast.ImportFrom):\n"
    "            names |= {node.module or ''} | {\n"
    "                f'{node.module}.{a.name}' for a in node.names}\n"
    "        elif isinstance(node, ast.Import):\n"
    "            names |= {a.name for a in node.names}\n"
    "    return names\n"
)


class TestImportDirection:
    def test_a_serving_process_imports_none_of_the_harness(self):
        loaded = in_a_fresh_interpreter(
            "import sys, repro.deploy.server\n"
            "print('\\n'.join(sorted(m for m in sys.modules "
            "if m == 'repro' or m.startswith('repro.'))))"
        )
        harness = [
            name for name in loaded
            if name in ("repro.gates", "repro.storm", "repro.cli",
                        "repro.reliability.chaos")
            or name.endswith(".storm")
        ]
        assert "repro.deploy.server" in loaded and harness == []
        assert len(loaded) <= 112  # 114 at the parent, less failover and guards

    def test_no_subsystem_imports_the_runner(self):
        offenders = in_a_fresh_interpreter(
            IMPORTED_NAMES
            + "for path in sorted(src.glob('repro/*/**/*.py')):\n"
            "    if {'repro.gates', 'repro.cli'} & imported(path):\n"
            "        print(path)\n"
        )
        assert offenders == []

    def test_the_front_door_has_no_thread_pool_and_no_prefetcher(self):
        """One backend behind the front door (PR 18): every admitted request
        is a dispatcher ticket, and nothing reads images ahead of the door."""
        offenders = in_a_fresh_interpreter(
            IMPORTED_NAMES
            + "front_door = [*sorted(src.glob('repro/net/*.py')),\n"
            "              src / 'repro' / 'deploy' / 'server.py']\n"
            "for path in front_door:\n"
            "    for name in sorted(imported(path)):\n"
            "        if name.endswith('ThreadPoolExecutor'):\n"
            "            print(path, name)\n"
            "print(len(front_door))\n"
        )
        assert offenders == [str(len(list((SRC / "repro" / "net").glob("*.py"))) + 1)]
        import repro

        assert "directory" not in {
            module.name for module in pkgutil.iter_modules(repro.__path__)
        }

    def test_the_storm_entry_points_are_imported_explicitly(self):
        import repro.deploy
        import repro.fleet

        # The device-loss storm is a tier-1 scenario on the kit, not a module.
        assert "storm" not in {
            module.name for module in pkgutil.iter_modules(repro.fleet.__path__)
        }
        assert not hasattr(repro.deploy, "run_deployment_storm")
        assert "run_profile" not in repro.deploy.__all__
