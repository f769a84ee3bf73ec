"""The serving gates: one table, one runner, one record schema.

Each gate's own behaviour is tested with its subsystem; these tests pin
what the gates share — that every one is reachable from the CLI with
``--seed`` and ``--output``, that whatever a gate writes has exactly the
one schema with ``pass`` tied to ``gates`` and to the exit code, and that
the committed ``BENCH_*.json`` records are in that schema.
"""

import dataclasses
import json
import pathlib
import re
import shutil

import pytest

from repro.cli import main as cli_main
from repro.gates import (
    GATES,
    SCHEMA,
    _git_state,
    _tree_digest,
    gate_parser,
    select_gate,
)

REPO = pathlib.Path(__file__).resolve().parent.parent


def assert_is_a_record(record):
    assert tuple(record) == SCHEMA
    assert record["benchmark"] in GATES
    for key in ("config", "host", "git", "metrics"):
        assert isinstance(record[key], dict), key
    assert isinstance(record["gates"], list)
    assert all(isinstance(failure, str) for failure in record["gates"])
    assert record["pass"] is (record["gates"] == [])


def run_cli(tmp_path, *argv):
    """``repro <argv> --output <file>``: the exit code and the record."""
    output = tmp_path / "record.json"
    code = cli_main([*argv, "--output", str(output)])
    return code, json.loads(output.read_text())


class TestTable:
    @pytest.mark.parametrize("name", sorted(GATES))
    def test_every_gate_is_a_cli_subcommand_with_seed_and_output(self, name):
        gate = GATES[name]
        assert select_gate([gate.command, *gate.flags]) is gate
        args = gate_parser(gate).parse_args(["--seed", "3", "--output", "r.json"])
        assert args.seed == 3
        assert args.output == pathlib.Path("r.json")

    def test_no_gate_selects_a_backend_the_server_does_not_have(self):
        from repro.deploy.topology import ENGINE_MODES

        # One backend and one mode: the server serves on the fleet
        # dispatcher, so no gate offers a pool width or an engine choice.
        assert ENGINE_MODES == ("fleet",)
        for name in ("chaos", "tenancy", "deployment"):
            actions = gate_parser(GATES[name])._actions
            flags = {flag for action in actions for flag in action.option_strings}
            assert not flags & {"--workers", "--engine"}, name

    def test_the_table_has_the_five_gates(self):
        assert sorted(GATES) == [
            "chaos", "deployment", "fleet", "fleet_storm", "tenancy",
        ]

    def test_the_committed_records_cover_the_three_benchmarks(self):
        committed = {path.stem for path in REPO.glob("BENCH_*.json")}
        assert committed == {
            f"BENCH_{name}" for name in ("fleet", "tenancy", "deployment")
        }


    @pytest.mark.parametrize(
        "path", sorted(REPO.glob("BENCH_*.json")), ids=lambda path: path.name
    )
    def test_committed_record_validates(self, path):
        record = json.loads(path.read_text())
        assert_is_a_record(record)
        assert path.name == f"BENCH_{record['benchmark']}.json"
        assert record["pass"], record["gates"]
        # The digest of the package tree the record was made from.
        assert re.fullmatch(r"[0-9a-f]{64}", record["git"]["tree"])


class TestRunner:
    @pytest.mark.parametrize(
        "argv",
        [
            ["fleet", "--storm", "--requests", "6", "--depths", "1,2"],
            ["tenants", "--victims", "4", "--aggressors", "6"],
        ],
        ids=lambda argv: " ".join(argv[:2]),
    )
    def test_smoke_scale_record_has_the_schema_and_the_exit_code(
        self, argv, tmp_path, capsys
    ):
        code, record = run_cli(tmp_path, *argv)
        assert_is_a_record(record)
        assert record["benchmark"] == select_gate(argv).name
        assert code == (0 if record["pass"] else 1)
        # One GATE line on stderr per named failure, none when it held.
        gate_lines = [
            line for line in capsys.readouterr().err.splitlines()
            if line.startswith("GATE: ")
        ]
        assert gate_lines == [f"GATE: {failure}" for failure in record["gates"]]

    def test_broken_invariant_is_named_and_exits_one(
        self, tmp_path, capsys, monkeypatch
    ):
        broken = dataclasses.replace(
            GATES["chaos"],
            run=lambda args: ({}, ["stub invariant broke"]),
            render=lambda record: "stub",
        )
        monkeypatch.setitem(GATES, "chaos", broken)
        code, record = run_cli(tmp_path, "chaos", "--seed", "0")
        assert code == 1
        assert_is_a_record(record)
        assert record["gates"] == ["stub invariant broke"]
        assert "GATE: stub invariant broke" in capsys.readouterr().err

    def test_refused_value_is_still_a_usage_error(self, tmp_path, capsys):
        output = tmp_path / "record.json"
        argv = ["fleet", "--storm", "--devices", "host", "--output", str(output)]
        assert cli_main(argv) == 2
        assert capsys.readouterr().err.startswith("repro fleet: error: ")
        assert not output.exists()

    def test_gate_word_without_its_mode_is_a_usage_error(self, capsys):
        assert cli_main(["deploy"]) == 2
        assert "--storm" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["sched"],
            ["directory"],
            ["directory", "--storm"],
            ["directory", "--bench"],
            ["fleet", "--bench", "--requests", "8"],
            ["deploy", "--storm", "--crash"],
            ["deploy", "--storm", "--crash", "2"],
            ["deploy", "--storm", "--engine", "sched"],
            ["deploy", "--storm", "--max-restarts", "8"],
        ],
        ids=" ".join,
    )
    def test_a_retired_gate_or_option_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exited:
            cli_main(argv)
        assert exited.value.code == 2
        assert "error:" in capsys.readouterr().err


class TestGitStamp:
    def test_the_tree_digest_names_the_bytes_that_ran(self, tmp_path):
        assert _git_state()["tree"] == _tree_digest() == _tree_digest()
        tree = tmp_path / "repro"
        shutil.copytree(
            REPO / "src" / "repro", tree,
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        copied = _tree_digest(tree)
        assert copied == _tree_digest()
        target = tree / "refusals.py"
        data = bytearray(target.read_bytes())
        data[0] ^= 1
        target.write_bytes(bytes(data))
        assert _tree_digest(tree) != copied
