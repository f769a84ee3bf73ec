"""Chaos storms: the acceptance criteria of the resilience layer.

The heavyweight test here runs the full 100-client `lossy-wan` plan
(20% drop, 5% corruption, one device-failure episode) once and asserts
every structural guarantee on that single run.
"""

import dataclasses
import json
import pathlib

import pytest

from repro.analysis.metrics import ResilienceReport, percentile
from repro.cli import main
from repro.reliability.chaos import NAMED_PLANS, StormConfig, run_named_storm


TYPED_OUTCOMES = {
    "authenticated",
    "rejected",
    "deadline_exceeded",
    "retries_exhausted",
    "server_busy",
}


@pytest.fixture(scope="module")
def lossy_wan_report() -> ResilienceReport:
    return run_named_storm("lossy-wan", seed=0)


class TestAcceptanceStorm:
    def test_fleet_size_is_at_least_100(self, lossy_wan_report):
        assert lossy_wan_report.clients >= 100

    def test_zero_false_authentications(self, lossy_wan_report):
        assert lossy_wan_report.false_authentications == 0

    def test_every_client_has_a_clean_typed_outcome(self, lossy_wan_report):
        report = lossy_wan_report
        assert set(name for name, _count in report.outcomes) <= TYPED_OUTCOMES
        assert sum(count for _name, count in report.outcomes) == report.clients
        assert report.succeeded + report.failed_clean == report.clients

    def test_most_clients_succeed_despite_the_weather(self, lossy_wan_report):
        assert lossy_wan_report.availability >= 0.8

    def test_faults_were_actually_injected(self, lossy_wan_report):
        injected = dict(lossy_wan_report.faults_injected)
        assert injected.get("drop", 0) > 0
        assert injected.get("corrupt", 0) > 0
        assert lossy_wan_report.device_failures > 0

    def test_breaker_walks_the_full_cycle(self, lossy_wan_report):
        transitions = lossy_wan_report.breaker_transitions
        assert "closed->open" in transitions
        assert "open->half_open" in transitions
        assert "half_open->closed" in transitions
        # The device episode outlives one recovery interval, so at least
        # one half-open probe hits the still-sick device and re-opens.
        assert "half_open->open" in transitions
        assert transitions[0] == "closed->open"
        assert transitions[-1] == "half_open->closed"

    def test_failover_absorbed_traffic_while_open(self, lossy_wan_report):
        assert lossy_wan_report.fallback_searches > 0
        assert lossy_wan_report.primary_searches > 0

    def test_latency_percentiles_ordered(self, lossy_wan_report):
        report = lossy_wan_report
        assert 0 < report.latency_p50 <= report.latency_p95 <= report.latency_max

    def test_render_mentions_the_essentials(self, lossy_wan_report):
        text = lossy_wan_report.render()
        assert "false auths" in text
        assert "breaker transitions" in text
        assert "lossy-wan" in text


class TestReproducibility:
    def test_same_seed_same_report(self):
        first = run_named_storm("smoke", seed=1)
        second = run_named_storm("smoke", seed=1)
        # Dataclass equality covers every field: outcomes, fault
        # schedule, latencies, breaker history.
        assert first == second

    def test_different_seed_different_schedule(self):
        a = run_named_storm("smoke", seed=1, clients=8)
        b = run_named_storm("smoke", seed=2, clients=8)
        assert a.faults_injected != b.faults_injected or a.outcomes != b.outcomes

    def test_clean_plan_all_authenticate(self):
        report = run_named_storm("clean", seed=3, clients=6)
        assert report.succeeded == 6
        assert report.faults_injected == ()
        assert report.breaker_transitions == ()


class TestPinnedToTheParent:
    """The device-episode plans are served by the serial ``CAServer``
    their back-to-back timeline always was, not by a thread pool in front
    of it (deleted in PR 18): every report field — outcomes, fault
    schedule, virtual latencies, breaker history, engine telemetry — is
    what the pool-fronted storm reported at ``bbcc74f``."""

    FIXTURES = pathlib.Path(__file__).parent / "fixtures"
    PARENT = json.loads((FIXTURES / "chaos_reports.json").read_text())

    @staticmethod
    def as_json(report: ResilienceReport) -> dict:
        return json.loads(json.dumps(dataclasses.asdict(report)))

    @pytest.mark.parametrize("plan, seed", [("smoke", 1), ("flaky-device", 0)])
    def test_report_equals_the_parents(self, plan, seed):
        report = run_named_storm(plan, seed=seed)
        assert self.as_json(report) == self.PARENT[f"{plan}/{seed}"]

    def test_acceptance_storm_equals_the_parents(self, lossy_wan_report):
        assert self.as_json(lossy_wan_report) == self.PARENT["lossy-wan/0"]

    def test_cli_smoke_stdout_is_the_parents(self, capsys):
        assert main(["chaos", "--plan", "smoke", "--seed", "1"]) == 0
        expected = (self.FIXTURES / "chaos_smoke_seed1.txt").read_text()
        assert capsys.readouterr().out == expected


class TestNamedPlans:
    def test_known_names(self):
        assert {"clean", "lossy-wan", "flaky-device", "smoke"} <= set(NAMED_PLANS)

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError, match="unknown fault plan"):
            run_named_storm("nonexistent")

    def test_cli_choices_match_registry(self):
        # The chaos gate keeps its --plan choices literal so argument
        # parsing stays import-free; pin the literal to the real registry.
        from repro.gates import GATES, gate_parser

        parser = gate_parser(GATES["chaos"])
        for name in NAMED_PLANS:
            assert parser.parse_args(["--plan", name]).plan == name

    def test_cli_rejects_unknown_plan(self):
        with pytest.raises(SystemExit):
            main(["chaos", "--plan", "not-a-plan"])

    def test_storm_config_validation(self):
        with pytest.raises(ValueError):
            StormConfig(clients=0)


class TestSchedulerStorm:
    """The smoke fault plan served through the concurrent front door and
    its continuous-batching dispatcher instead of the serial server:
    link-level faults still strike, every client still gets a typed
    outcome, and the false-authentication tripwire (on the key-issuance
    path) stays at 0.
    """

    @pytest.fixture(scope="class")
    def scheduler_report(self) -> ResilienceReport:
        from repro.reliability.chaos import run_storm

        spec, config = NAMED_PLANS["smoke"]
        config = StormConfig(
            clients=8,
            scheduler=True,
            breaker_recovery_seconds=config.breaker_recovery_seconds,
        )
        # Transport faults only: the scheduler owns its device, so the
        # device-failure episodes of the serial plan do not apply.
        from dataclasses import replace as dc_replace

        spec = dc_replace(spec, device_failure_episodes=0)
        return run_storm(spec, seed=3, config=config)

    def test_zero_false_authentications(self, scheduler_report):
        assert scheduler_report.false_authentications == 0

    def test_every_client_has_a_clean_typed_outcome(self, scheduler_report):
        assert set(dict(scheduler_report.outcomes)) <= TYPED_OUTCOMES
        assert (
            sum(dict(scheduler_report.outcomes).values())
            == scheduler_report.clients
        )

    def test_most_clients_authenticate_through_the_scheduler(
        self, scheduler_report
    ):
        assert scheduler_report.succeeded >= scheduler_report.clients // 2

    def test_scheduler_really_ran_the_searches(self, scheduler_report):
        # The telemetry tap hangs off the scheduler's executor in this
        # mode; batches were really hashed there.
        assert scheduler_report.engine_seeds_hashed > 0


class TestPercentile:
    def test_interpolates(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 0) == 1.0
        assert percentile(values, 100) == 4.0
        assert percentile(values, 50) == pytest.approx(2.5)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            percentile([], 50)


class TestChaosCLI:
    def test_smoke_run_exits_zero(self, capsys):
        exit_code = main(["chaos", "--plan", "smoke", "--seed", "1",
                          "--clients", "6"])
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "chaos storm" in out
        assert "false auths:         0" in out
