"""Self-test of benchmarks/ladder (``pytest benchmarks/ladder``; not in testpaths).

Runs the benchmark in ``--smoke`` mode (3 s windows, one set-up) against
real server processes, so it takes about two minutes.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run as ladder
import record
import rig
import tracer as tracing
import workloads

HERE = Path(__file__).resolve().parent
DECLARED = record.declared()
END_TO_END = {m["name"]: m for m in DECLARED["end_to_end"]}
PER_LAYER = {m["name"]: m for m in DECLARED["per_layer"]}


def smoke(workload: str, *extra: str, seed: int = 0) -> tuple[int, dict | None, str]:
    """(exit code, the last line parsed, all of stdout) of one smoke run."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--smoke", *extra],
        capture_output=True, text=True, timeout=170,
    )
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    return done.returncode, result, done.stdout


# -- the declaration -----------------------------------------------------------


def test_declaration_matches_the_code():
    assert DECLARED["paths"] == ["benchmarks/ladder"]
    assert DECLARED["command"] == ["python3", "benchmarks/ladder/run.py"]
    assert DECLARED["run_seconds"] == ladder.DEFAULT_SECONDS
    assert tuple(w["name"] for w in DECLARED["workloads"]) == workloads.WORKLOADS
    assert not END_TO_END.keys() & PER_LAYER.keys()
    for name, entry in {**END_TO_END, **PER_LAYER}.items():
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name)
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", entry["unit"])
        assert entry["better"] in ("higher", "lower")
    assert END_TO_END["setup_s"]["unit"] == "s"
    assert all(0 < m["bound"] <= 0.25 for m in END_TO_END.values())
    assert all(len(w["why"]) <= 200 for w in DECLARED["workloads"])


# -- what a run prints -----------------------------------------------------------


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_untraced_run_prints_exactly_the_end_to_end_metrics(workload):
    code, result, stdout = smoke(workload, "--trace", "0")
    assert code == 0, stdout
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert result["metrics"].keys() == END_TO_END.keys()
    for name, metric in result["metrics"].items():
        assert metric["unit"] == END_TO_END[name]["unit"]
        assert metric["value"] > 0, name
    # attempted / succeeded / failed are always printed
    assert re.search(r"attempted \d+  succeeded \d+  failed 0", stdout)


@pytest.fixture(scope="module")
def traced_mixed(tmp_path_factory):
    spans = tmp_path_factory.mktemp("trace") / "trace.json"
    code, result, stdout = smoke("auth_mixed_open", "--trace", "1", "--out", str(spans))
    assert code == 0, stdout
    return result, stdout, json.loads(spans.read_text())


@pytest.mark.parametrize(
    "workload", [w for w in workloads.WORKLOADS if w != "auth_mixed_open"]
)
def test_traced_run_prints_exactly_the_per_layer_metrics(workload):
    code, result, stdout = smoke(workload, "--trace", "1")
    assert code == 0, stdout
    assert result["correct"] is True
    assert result["metrics"].keys() == PER_LAYER.keys()


def test_traced_mixed_run_metrics_and_budget(traced_mixed):
    result, stdout, _spans = traced_mixed
    assert result["metrics"].keys() == PER_LAYER.keys()
    for name, metric in result["metrics"].items():
        assert metric["unit"] == PER_LAYER[name]["unit"]
    # the budget names its stages and says how much they account for
    assert "net.digest_rtt_d0_ms:" in stdout and "net.handshake_rtt_ms:" in stdout
    assert stdout.count("named stages account for") == 2
    assert "bench.trace_overhead_share" in stdout


def test_span_children_lie_inside_their_parents(traced_mixed):
    spans = [tracing.Span(**s) for s in traced_mixed[2]]
    assert {s.name for s in spans} >= {
        "request", "connect", "handshake", "respond", "digest", "noop"
    }
    assert tracing.misnested(spans) == []
    assert all(t >= 0 for t in tracing.self_times(spans).values())
    by_id = {s.id: s for s in spans}
    for span in spans:
        if span.parent is not None:
            assert by_id[span.parent].request == span.request


# -- determinism -----------------------------------------------------------------


def test_same_seed_same_inputs_other_seed_other_inputs():
    slots = [0, 1, 3]
    for seed in (0, 7):
        assert workloads.open_loop_schedule(seed, slots, 25.0) == (
            workloads.open_loop_schedule(seed, slots, 25.0)
        )
        assert workloads.slot_rotation(seed, slots) == workloads.slot_rotation(seed, slots)
        assert workloads.search_plan(seed) == workloads.search_plan(seed)
    assert workloads.open_loop_schedule(0, slots, 25.0) != (
        workloads.open_loop_schedule(7, slots, 25.0)
    )
    assert workloads.search_plan(0) != workloads.search_plan(7)
    rotations = {tuple(workloads.slot_rotation(seed, slots)) for seed in range(12)}
    assert len(rotations) > 1


def test_open_loop_schedule_asks_for_the_same_work_whatever_the_seed():
    slots = [0, 1, 3]
    depth_counts = set()
    for seed in range(5):
        schedule = workloads.open_loop_schedule(seed, slots, 25.0)
        assert len(schedule) == 100
        assert all(0 <= due < 25.0 for due, _slot, _depth in schedule)
        assert [due for due, _s, _d in schedule] == sorted(d for d, _s, _d in schedule)
        depths = [depth for _due, _slot, depth in schedule]
        depth_counts.add(tuple(depths.count(d) for d in range(3)))
    assert depth_counts == {(63, 24, 13)}


def test_search_plan_asks_for_equal_work_in_the_first_quarter_of_shell_3():
    for seed in range(5):
        _base, ranks = workloads.search_plan(seed)
        assert len(ranks) == workloads.SEARCH_PLAN
        for rank in ranks:
            assert abs(rank / workloads.SEARCH_RANK - 1) <= workloads.SEARCH_RANK_JITTER
            assert rank < workloads.SEARCH_COLD_RANK < math.comb(256, 3) // 4


def test_seeds_hashed_per_request_repeats_exactly(traced_mixed):
    first = traced_mixed[0]["metrics"]["net.seeds_hashed_per_req"]["value"]
    code, again, stdout = smoke("auth_mixed_open", "--trace", "1")
    assert code == 0, stdout
    assert again["metrics"]["net.seeds_hashed_per_req"]["value"] == first
    assert first >= 1


def test_clean_slot_prediction_matches_the_sizing():
    # At fleet seed 0, slots 2, 4, 5, 6 and 7 read 1-2 bits off naturally.
    assert rig.clean_slots() == ([0, 1, 3], [2, 4, 5, 6, 7])


# -- the correctness gate ----------------------------------------------------------


def test_wrong_expected_distance_fails_the_run(monkeypatch, capsys):
    monkeypatch.setattr(rig, "expected_distance", lambda depth: depth + 1)
    code = ladder.main(["--workload", "search_d3", "--smoke", "--seed", "0"])
    out = capsys.readouterr().out
    result = json.loads(out.strip().splitlines()[-1])
    assert code != 0
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1
    assert "failure: distance 3" in out


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(rig.REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "ladder",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "benchmarks/ladder/run.py", "--workload", "auth_shallow",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""


def _session_members(sid: int) -> list[str]:
    """``pid (comm) state`` of every process, zombies too, in session ``sid``."""
    members = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            text = stat.read_text()
        except OSError:
            continue
        if int(text.rsplit(")", 1)[1].split()[3]) == sid:
            members.append(text.rsplit(")", 1)[0] + ")" + text.rsplit(")", 1)[1][:2])
    return members


@pytest.mark.parametrize("trace", ["0", "1"])
def test_a_run_leaves_no_process_behind(trace):
    # search_d3 keeps mask plans in shared memory, which starts a resource
    # tracker here and (traced) in the borrowed server; both outlive their
    # parents, so only run.py's outer process can wait for them.
    run = subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), "--workload", "search_d3",
         "--seed", "0", "--smoke", "--trace", trace],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, start_new_session=True,
    )
    assert run.wait(timeout=170) == 0
    assert _session_members(run.pid) == []


# -- compare -------------------------------------------------------------------------


def _record(path: Path, values: dict[str, float]) -> str:
    doc = {"metrics": {"auth_shallow": record.with_units(values)}}
    path.write_text(json.dumps(doc))
    return str(path)


def test_compare_verdicts_and_exit_code(tmp_path, capsys):
    bound = END_TO_END["hashes_per_s"]["bound"]
    base = {"hashes_per_s": 10.0, "latency_min_ms": 100.0,
            "setup_s": 1.0, "puf.lookup_ms": 30.0}
    a = _record(tmp_path / "a.json", base)
    better = _record(tmp_path / "b.json", {
        **base,
        "hashes_per_s": 10.0 * (1 + 2 * bound),
        "latency_min_ms": 100.0 * (1 - END_TO_END["latency_min_ms"]["bound"] / 2),
        "puf.lookup_ms": 3.0,
    })
    assert ladder.main(["--compare", a, better]) == 0
    rows = {line.split()[1]: line for line in capsys.readouterr().out.splitlines()[1:]}
    assert "better" in rows["hashes_per_s"]
    assert "same" in rows["latency_min_ms"]
    assert "same" in rows["setup_s"]
    assert "unresolved" in rows["puf.lookup_ms"]  # per-layer: no bound, no verdict
    assert "base A = 10" in rows["hashes_per_s"]

    worse = _record(tmp_path / "c.json", {
        **base, "hashes_per_s": 10.0 * (1 - 2 * bound),
    })
    assert ladder.main(["--compare", a, worse]) == 1
    assert "worse" in capsys.readouterr().out
