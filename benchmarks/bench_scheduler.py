"""Scheduler benchmark — shallow-request tail latency under a mixed fleet.

The serving claim behind the ``sched:`` engine (the one-device
:mod:`repro.fleet` dispatcher): when shallow (d <= 2)
authentications share one device with deep stragglers, a FIFO worker
makes every shallow request wait out the deep searches queued ahead of
it, while the deadline-aware continuous batcher interleaves chunks of
all of them — so the shallow p99 collapses from "sum of the stragglers"
to "a few shared device batches".

Both serving paths run the *same* deterministic mixed-depth workload
(:func:`repro.storm.planted` — depths cycled round-robin, seeds planted
at seeded-random shell positions) through the same driver
(:func:`repro.storm.drive`), every latency counted from the common
arrival instant to the request's own settlement:

* **FIFO** — requests served start-to-finish in submission order on one
  vectorized engine (:func:`repro.storm.search_submit`);
* **scheduled** — all requests admitted at once, served by the
  ``sched:`` engine's EDF lanes and fused batches
  (:func:`repro.storm.ticket_submit`).

The headline number is the shallow-class p99 ratio. The gate itself —
arguments, measurement, render, record — is ``repro sched``
(:mod:`repro.gates`); this file is its reduced-scale pytest entry::

    PYTHONPATH=src python -m repro sched --output BENCH_scheduler.json
"""

from repro.gates import GATES, measure

GATE = GATES["scheduler"]


def test_scheduler_beats_fifo_on_shallow_p99(report):
    """Reduced-scale pytest entry: the acceptance claim of the bench."""
    record = measure(
        GATE,
        ["--requests", "8", "--depths", "1,2,3", "--budget", "2.0",
         "--batch-size", "8192"],
    )
    report("scheduler", GATE.render(record))
    assert record["pass"], record["gates"]
    # Every shallow request really completed (found its planted seed).
    shallow = record["metrics"]["scheduled"]["shallow"]
    assert shallow["found"] == shallow["count"]
