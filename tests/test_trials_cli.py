"""Trial harness statistics and the CLI entry points."""

import numpy as np
import pytest

from repro.analysis.trials import run_device_trials, run_search_trials
from repro.cli import main as cli_main
from repro.devices import GPUModel
from repro.hashes.sha1 import sha1
from repro.runtime.executor import BatchSearchExecutor


class TestSearchTrials:
    def test_statistics_converge_to_equation3(self, rng):
        executor = BatchSearchExecutor("sha1", batch_size=129)
        stats = run_search_trials(executor, sha1, distance=1, trials=60, rng=rng)
        # a(1) = 129; with 60 trials the mean should land within ~35%.
        assert 0.6 < stats.mean_vs_analytic < 1.5
        assert stats.min_seeds >= 1
        assert stats.max_seeds <= stats.exhaustive + 129  # batch quantization

    def test_summary_string(self, rng):
        executor = BatchSearchExecutor("sha1", batch_size=64)
        stats = run_search_trials(executor, sha1, distance=1, trials=5, rng=rng)
        assert "trials at d=1" in stats.summary()

    def test_trials_validation(self, rng):
        executor = BatchSearchExecutor("sha1")
        with pytest.raises(ValueError):
            run_search_trials(executor, sha1, 1, 0, rng=rng)


class TestDeviceTrials:
    def test_paper_scale_trials(self, rng):
        gpu = GPUModel()
        stats = run_device_trials(gpu, "sha3-256", distance=5, trials=1200, rng=rng)
        # 1,200 trials (the paper's count): mean within 2% of a(5) and the
        # mean modeled time near the Table 5 average-case anchor's work
        # portion (2.38 s) — without exit overhead, which the model adds
        # to full searches only.
        assert abs(stats.mean_vs_analytic - 1.0) < 0.02
        assert 2.2 < stats.mean_seconds < 2.6

    def test_spread_covers_the_shell(self, rng):
        gpu = GPUModel()
        stats = run_device_trials(gpu, "sha1", distance=5, trials=500, rng=rng)
        assert stats.min_seeds < stats.analytic_average < stats.max_seeds

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            run_device_trials(GPUModel(), "sha1", 5, 0, rng=rng)


class TestCLI:
    def test_demo(self, capsys):
        assert cli_main(["demo", "--distance", "1", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "authenticated: True" in out

    def test_complexity(self, capsys):
        assert cli_main(["complexity", "--throughput", "1.9e9"]) == 0
        out = capsys.readouterr().out
        assert "8,987,138,113" in out and "d_max = 5" in out

    def test_tables(self, capsys):
        assert cli_main(["tables"]) == 0
        out = capsys.readouterr().out
        assert "Table 5 (reproduced)" in out and "Fig 4" in out

    def test_attack_short_budget(self, capsys):
        assert cli_main(["attack", "--budget", "0.05", "--hash", "sha1"]) == 0
        out = capsys.readouterr().out
        assert "avalanche" in out

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            cli_main(["frobnicate"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["chaos", "--plan", "smoke", "--clients", "0"],
            ["chaos", "--plan", "smoke", "--seed", "-1"],
            ["fleet", "--storm", "--devices", "host"],
        ],
    )
    def test_refused_values_are_usage_errors_not_tracebacks(self, argv, capsys):
        assert cli_main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"repro {argv[0]}: error: ")
        assert "Traceback" not in captured.err and not captured.out
