"""Directory benchmark — hot-cache latency and availability under shard loss.

Two claims behind :mod:`repro.directory`, measured on synthetic
enrollment images (the directory stores and serves ciphertext; no PUF or
search is needed to characterize it):

* **Caching** — a steady-state working set is served from the per-shard
  hot caches at a >= 90% hit rate (the gate), even with enrollment churn
  invalidating entries mid-stream, and a hot hit is cheaper than the
  cold quorum read it replaces (decrypt + replica walk).

* **Availability** — with R-way replication, losing any **one** shard
  leaves every key readable (failover carries the primaries of the dead
  shard); losing a key's **entire replica set** makes exactly the doomed
  keys unavailable — typed, counted, and nothing else — and reviving the
  shards restores full availability with read repair healing the
  divergence accumulated while they were dark.

The gate itself is ``repro directory --bench`` (:mod:`repro.gates`);
this file is its reduced-scale pytest entry::

    PYTHONPATH=src python -m repro directory --bench --output BENCH_directory.json
"""

from repro.gates import GATES, measure

GATE = GATES["directory"]


def test_directory_cache_and_availability(report):
    """Reduced-scale pytest entry: the acceptance claims of the bench."""
    record = measure(
        GATE,
        ["--clients", "96", "--cache-capacity", "48", "--rounds", "4",
         "--churn-per-round", "2"],
    )
    report("directory", GATE.render(record))
    assert record["pass"], record["gates"]
