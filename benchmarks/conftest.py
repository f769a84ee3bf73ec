"""Benchmark harness plumbing.

Each bench regenerates one table or figure of the paper and registers a
paper-vs-measured report. Reports are printed in the terminal summary
(so they survive pytest's output capture) and written to
``benchmarks/results/<name>.txt`` for EXPERIMENTS.md.
"""

from __future__ import annotations

import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

_REPORTS: list[tuple[str, str]] = []


def record_report(name: str, text: str) -> None:
    """Register a report for terminal display and write it to disk."""
    _REPORTS.append((name, text))
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")


@pytest.fixture
def report():
    """Fixture alias for record_report."""
    return record_report


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    for name, text in _REPORTS:
        terminalreporter.write_sep("=", f"report: {name}")
        terminalreporter.write_line(text)


def quiet_sweep_seconds(
    worker_counts: tuple[int, ...],
    hash_name: str = "sha3-256",
    batch_size: int = 16384,
    sweeps: int = 12,
) -> dict[int, float]:
    """Per worker count, the quiet-most exhaustive d=2 sweep (absent
    target) of the ``parallel:`` engine — one ``host`` device on that many
    scan threads. The engines are warm (built and swept once before the
    clock starts, as a server is) and take turns sweep by sweep, so that
    a slow spell of the host falls on all alike."""
    import contextlib
    import time

    import numpy as np

    from repro.engines import build_engine, engine_target

    rng = np.random.default_rng(17)
    base = rng.bytes(32)
    quiet: dict[int, float] = {}
    with contextlib.ExitStack() as stack:
        engines = {
            workers: stack.enter_context(
                build_engine(f"parallel:{hash_name},w={workers},bs={batch_size}")
            )
            for workers in worker_counts
        }
        absent = engine_target(engines[worker_counts[0]], rng.bytes(32))
        for sweep in range(1 + sweeps):  # the first one warms up
            for workers, engine in engines.items():
                start = time.perf_counter()
                result = engine.search(base, absent, 2)
                seconds = time.perf_counter() - start
                assert not result.found and result.seeds_hashed == 1 + 256 + 32640
                if sweep:
                    quiet[workers] = min(seconds, quiet.get(workers, seconds))
    return quiet


def comparison_table(title: str, rows: list[tuple[str, float, float]]) -> str:
    """Render (quantity, paper, measured) rows with deviation column."""
    from repro.analysis.tables import format_table

    body = []
    for quantity, paper, measured in rows:
        deviation = (measured / paper - 1.0) * 100.0 if paper else float("nan")
        body.append(
            [quantity, f"{paper:g}", f"{measured:.4g}", f"{deviation:+.1f}%"]
        )
    return format_table(["quantity", "paper", "reproduced", "dev"], body, title=title)
