"""Amortized-pipeline benchmark — cold vs. warm search throughput.

The serving claim behind the amortized pipeline: per-search costs that
do not depend on the seed (worker spawn) should be paid once, not per
request. This bench measures exactly that boundary on the ``pool:``
engine:

* **cold** — building the engine and its first search: pays the worker
  forks, then the search;
* **warm** — the steady state the CA serves from: the workers are
  already running, and each makes the candidates of the rank ranges it
  is handed, so per-candidate work is one table XOR + hash + compare.

The client seed is planted at rank 0 of the deepest shell, so every
search runs the same deterministic workload (all shallower shells
exhausted, one kernel batch at the deepest) — the paper's "found at
distance d" request shape. The same engine built, used for one search
and closed (``parallel:``, forks inside the clock) is measured once as
the fork-per-call baseline.

The gate itself is ``repro amortization`` (:mod:`repro.gates`); this file
is its reduced-scale pytest entry::

    PYTHONPATH=src python -m repro amortization --output BENCH_amortization.json
"""

from repro.gates import GATES, measure

GATE = GATES["amortization"]


def test_amortization_warm_beats_cold(report):
    """Reduced-scale pytest entry: warm must be at least as fast as cold."""
    record = measure(
        GATE,
        ["--max-distance", "2", "--batch-size", "8192", "--searches", "3",
         "--no-parallel-baseline"],
    )
    report("amortization", GATE.render(record))
    assert record["pass"], record["gates"]
