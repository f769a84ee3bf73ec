"""Chaos storms: the acceptance criteria of the resilience layer.

The heavyweight test here runs the full 100-client `lossy-wan` plan
(20% drop, 5% corruption, one device outage) once and asserts every
structural guarantee on that single run. Every storm is served by the
deployed front door on a two-device fleet dispatcher.
"""

import dataclasses
import json
import pathlib

import pytest

from repro.analysis.metrics import ResilienceReport, percentile
from repro.cli import main
from repro.reliability.chaos import (
    NAMED_PLANS,
    StormConfig,
    run_named_storm,
    run_storm,
)
from repro.reliability.faults import FaultSpec


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


@pytest.fixture(scope="module")
def flaky_device_report() -> ResilienceReport:
    """Two device outages on clean links: every failure is the device's."""
    return run_named_storm("flaky-device", seed=0)


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
        assert lossy_wan_report.device_episodes > 0

    def test_breaker_walks_the_full_cycle(
        self, lossy_wan_report, flaky_device_report
    ):
        # The victim's breaker opened (quarantine) and closed again
        # (reinstatement) once per outage; equal counts mean it ended
        # healthy.
        for report, episodes in ((lossy_wan_report, 1), (flaky_device_report, 2)):
            assert report.device_episodes == episodes
            assert report.quarantines == episodes
            assert report.reinstatements == episodes

    def test_failover_absorbed_traffic_while_open(self, flaky_device_report):
        # No link faults in this plan, so the clients whose round fell
        # inside an outage were served by the surviving device.
        report = flaky_device_report
        assert report.faults_injected == ()
        assert report.outcomes == (("authenticated", report.clients),)
        assert report.false_authentications == 0

    def test_latency_percentiles_ordered(self, lossy_wan_report):
        report = lossy_wan_report
        assert 0 < report.latency_p50 <= report.latency_p95 <= report.latency_max

    def test_render_mentions_the_essentials(self, lossy_wan_report):
        text = lossy_wan_report.render()
        assert "false auths" in text
        assert "device episodes" in text
        assert "lossy-wan" in text


class TestReproducibility:
    def test_same_seed_same_report(self):
        first = run_named_storm("smoke", seed=1)
        second = run_named_storm("smoke", seed=1)
        # Dataclass equality covers every compared field: outcomes,
        # fault schedule, latencies, quarantines and reinstatements.
        assert first == second

    def test_two_outages_three_runs_one_report(self):
        # Fails on a harness that does not hold each kill / revive edge
        # until the monitor has seen it: an idle victim revived before
        # its second failed heartbeat is never quarantined.
        spec = FaultSpec(
            name="two-outages", device_failure_episodes=2, device_failure_length=3
        )
        reports = [
            run_storm(spec, seed=0, config=StormConfig(clients=24))
            for _ in range(3)
        ]
        assert reports[0] == reports[1] == reports[2]
        assert reports[0].device_episodes == 2
        assert reports[0].quarantines == reports[0].reinstatements == 2
        assert reports[0].succeeded == 24

    def test_different_seed_different_schedule(self):
        a = run_named_storm("smoke", seed=1, clients=8)
        b = run_named_storm("smoke", seed=2, clients=8)
        assert a.faults_injected != b.faults_injected or a.outcomes != b.outcomes

    def test_clean_plan_all_authenticate(self):
        report = run_named_storm("clean", seed=3, clients=6)
        assert report.succeeded == 6
        assert report.faults_injected == ()
        assert report.device_episodes == report.quarantines == 0


class TestPinnedToTheParent:
    """Every plan is served by ``ConcurrentCAServer`` on the fleet
    dispatcher, and what a client can observe did not move: the 15
    client-side and telemetry keys of each fixture entry — outcomes,
    fault schedule, attempts, virtual latencies, engine counters — are
    the bytes the serial-server storm reported at ``bbcc74f``. The three
    device-side keys (``device_episodes``, ``quarantines``,
    ``reinstatements``) are the dispatcher's own."""

    FIXTURES = pathlib.Path(__file__).parent / "fixtures"
    PARENT = json.loads((FIXTURES / "chaos_reports.json").read_text())

    @staticmethod
    def as_json(report: ResilienceReport) -> dict:
        """The compared fields; the dispatcher's timing-dependent
        observations are not part of the pin."""
        compared = {f.name for f in dataclasses.fields(report) if f.compare}
        record = json.loads(json.dumps(dataclasses.asdict(report)))
        return {key: value for key, value in record.items() if key in compared}

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
