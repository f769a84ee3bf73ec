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

Runs standalone for CI (writes ``BENCH_directory.json``, exits 1 on a
gate failure) and under pytest with the usual report plumbing::

    PYTHONPATH=src python benchmarks/bench_directory.py --help
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from repro.analysis.metrics import percentile
from repro.directory import DirectoryUnavailable, ShardedEnrollmentDirectory
from repro.directory.storm import _pick_victims
from repro.puf.ternary import TernaryMask

FULL_SCALE = {
    "clients": 512,
    "shards": 8,
    "replication": 2,
    "cache_capacity": 128,
    "rounds": 10,
    "churn_per_round": 8,
    "latency_sample": 64,
}


def _synthetic_mask(rng: np.random.Generator, cells: int = 512) -> TernaryMask:
    """A directory-sized enrollment image without running a PUF model."""
    usable = rng.random(cells) > 0.03
    return TernaryMask(
        address=0,
        usable=usable,
        reference=(rng.random(cells) > 0.5),
        instability=np.zeros(cells),
    )


def _build_directory(
    clients: int, shards: int, replication: int, cache_capacity: int, seed: int
) -> tuple[ShardedEnrollmentDirectory, list[str], np.random.Generator]:
    rng = np.random.default_rng(seed)
    directory = ShardedEnrollmentDirectory(
        master_key=b"bench-master-k!!",
        shards=shards,
        replication=replication,
        cache_capacity=cache_capacity,
    )
    client_ids = [f"client-{index:05d}" for index in range(clients)]
    masks = {c: _synthetic_mask(rng) for c in client_ids}
    for client_id in client_ids:
        directory.enroll(client_id, masks[client_id])
    return directory, client_ids, rng


def _latency_section(
    directory: ShardedEnrollmentDirectory, sample: list[str]
) -> dict:
    """Cold quorum-read latency vs hot-cache hit latency, same keys."""
    directory.drop_hot_caches()
    cold = []
    for client_id in sample:
        start = time.perf_counter()
        _mask, stats = directory.lookup_with_stats(client_id)
        cold.append(time.perf_counter() - start)
        assert not stats.hot_hit
    hot = []
    for client_id in sample:
        start = time.perf_counter()
        _mask, stats = directory.lookup_with_stats(client_id)
        hot.append(time.perf_counter() - start)
        assert stats.hot_hit
    return {
        "sample": len(sample),
        "cold_mean_us": float(np.mean(cold) * 1e6),
        "cold_p99_us": float(percentile(cold, 99.0) * 1e6),
        "hot_mean_us": float(np.mean(hot) * 1e6),
        "hot_p99_us": float(percentile(hot, 99.0) * 1e6),
        "speedup": float(np.mean(cold) / np.mean(hot)),
    }


def _steady_state_section(
    directory: ShardedEnrollmentDirectory,
    client_ids: list[str],
    rounds: int,
    churn_per_round: int,
    rng: np.random.Generator,
) -> dict:
    """Hit rate over repeated working-set rounds with enrollment churn.

    Round 0 warms the caches and is excluded from the steady-state rate;
    every later round re-enrolls ``churn_per_round`` random clients first
    (invalidating their cached entry — a miss the cache must re-absorb).
    """
    directory.drop_hot_caches()
    hits = lookups = 0
    for round_index in range(rounds):
        if round_index > 0 and churn_per_round:
            for client_id in rng.choice(
                client_ids, size=churn_per_round, replace=False
            ):
                directory.enroll(
                    str(client_id), directory.lookup(str(client_id))
                )
        for client_id in client_ids:
            _mask, stats = directory.lookup_with_stats(client_id)
            if round_index > 0:
                lookups += 1
                hits += 1 if stats.hot_hit else 0
    hit_rate = hits / lookups if lookups else 0.0
    return {
        "rounds": rounds,
        "churn_per_round": churn_per_round,
        "steady_lookups": lookups,
        "steady_hits": hits,
        "hit_rate": hit_rate,
    }


def _availability_sweep(
    directory: ShardedEnrollmentDirectory, client_ids: list[str]
) -> tuple[int, int, int]:
    """(served, typed_unavailable, errors) over one full lookup sweep."""
    served = unavailable = errors = 0
    for client_id in client_ids:
        try:
            directory.lookup(client_id)
            served += 1
        except DirectoryUnavailable:
            unavailable += 1
        except Exception:
            errors += 1
    return served, unavailable, errors


def _availability_section(
    directory: ShardedEnrollmentDirectory, client_ids: list[str]
) -> dict:
    victim, partner, doomed = _pick_victims(directory, client_ids)
    total = len(client_ids)

    directory.kill_shard(victim)
    directory.drop_hot_caches()
    failovers_before = directory.failovers
    served_1, unavailable_1, errors_1 = _availability_sweep(
        directory, client_ids
    )
    failovers = directory.failovers - failovers_before

    directory.kill_shard(partner)
    directory.drop_hot_caches()
    served_2, unavailable_2, errors_2 = _availability_sweep(
        directory, client_ids
    )

    repairs_before = directory.read_repairs
    directory.revive_shard(victim)
    directory.revive_shard(partner)
    # Revived shards are re-admitted once their tripped breakers' recovery
    # window has passed; the sweep must not start inside it.
    time.sleep(directory.shard(victim).breaker.recovery_seconds)
    directory.drop_hot_caches()
    served_3, unavailable_3, errors_3 = _availability_sweep(
        directory, client_ids
    )

    return {
        "victim": victim,
        "partner": partner,
        "doomed_keys": len(doomed),
        "one_shard_down": {
            "served": served_1,
            "unavailable": unavailable_1,
            "errors": errors_1,
            "availability": served_1 / total,
            "failovers": failovers,
        },
        "replica_set_down": {
            "served": served_2,
            "unavailable": unavailable_2,
            "errors": errors_2,
            "availability": served_2 / total,
        },
        "recovered": {
            "served": served_3,
            "unavailable": unavailable_3,
            "errors": errors_3,
            "availability": served_3 / total,
            "read_repairs": directory.read_repairs - repairs_before,
        },
    }


def run_benchmark(
    clients: int = FULL_SCALE["clients"],
    shards: int = FULL_SCALE["shards"],
    replication: int = FULL_SCALE["replication"],
    cache_capacity: int = FULL_SCALE["cache_capacity"],
    rounds: int = FULL_SCALE["rounds"],
    churn_per_round: int = FULL_SCALE["churn_per_round"],
    latency_sample: int = FULL_SCALE["latency_sample"],
    seed: int = 0,
) -> dict:
    directory, client_ids, rng = _build_directory(
        clients, shards, replication, cache_capacity, seed
    )
    start = time.perf_counter()
    latency = _latency_section(directory, client_ids[:latency_sample])
    steady = _steady_state_section(
        directory, client_ids, rounds, churn_per_round, rng
    )
    availability = _availability_section(directory, client_ids)
    record = {
        "config": {
            "clients": clients,
            "shards": shards,
            "replication": replication,
            "cache_capacity": cache_capacity,
            "rounds": rounds,
            "churn_per_round": churn_per_round,
            "seed": seed,
        },
        "latency": latency,
        "steady_state": steady,
        "availability": availability,
        "wall_seconds": time.perf_counter() - start,
        "directory": {
            key: value
            for key, value in directory.snapshot().items()
            if key != "shards_detail"
        },
    }
    one_down = availability["one_shard_down"]
    two_down = availability["replica_set_down"]
    recovered = availability["recovered"]
    record["pass"] = (
        steady["hit_rate"] >= 0.9
        and latency["speedup"] > 1.0
        # one shard down: every key still served, via real failover.
        and one_down["availability"] == 1.0
        and one_down["errors"] == 0
        and one_down["failovers"] > 0
        # replica set down: exactly the doomed keys go (typed) unavailable.
        and two_down["unavailable"] == availability["doomed_keys"]
        and two_down["errors"] == 0
        # revive restores full availability.
        and recovered["availability"] == 1.0
        and recovered["errors"] == 0
    )
    return record


def format_record(record: dict) -> str:
    config = record["config"]
    latency = record["latency"]
    steady = record["steady_state"]
    availability = record["availability"]
    one_down = availability["one_shard_down"]
    two_down = availability["replica_set_down"]
    recovered = availability["recovered"]
    lines = [
        "Directory — hot-cache latency and availability under shard loss",
        f"  {config['clients']} clients over {config['shards']} shards, "
        f"r={config['replication']}, cache={config['cache_capacity']}/shard",
        f"  latency (n={latency['sample']}): "
        f"cold quorum read {latency['cold_mean_us']:.0f}us "
        f"(p99 {latency['cold_p99_us']:.0f}us) -> hot hit "
        f"{latency['hot_mean_us']:.0f}us "
        f"(p99 {latency['hot_p99_us']:.0f}us), "
        f"{latency['speedup']:.1f}x",
        f"  steady state ({steady['rounds']} rounds, "
        f"{steady['churn_per_round']} re-enrolls/round): "
        f"hit rate {steady['hit_rate']:.1%} "
        f"({steady['steady_hits']}/{steady['steady_lookups']})",
        f"  1-of-N loss ({availability['victim']}): "
        f"availability {one_down['availability']:.1%}, "
        f"{one_down['failovers']} failovers, {one_down['errors']} errors",
        f"  replica-set loss (+{availability['partner']}): "
        f"availability {two_down['availability']:.1%}, "
        f"{two_down['unavailable']} typed unavailable "
        f"(= {availability['doomed_keys']} doomed keys), "
        f"{two_down['errors']} errors",
        f"  recovered: availability {recovered['availability']:.1%}, "
        f"{recovered['read_repairs']} read repairs, "
        f"{recovered['errors']} errors",
        f"  wall: {record['wall_seconds']:.2f}s  "
        f"verdict: {'PASS' if record['pass'] else 'FAIL'}",
    ]
    return "\n".join(lines)


def test_directory_cache_and_availability(report):
    """Reduced-scale pytest entry: the acceptance claims of the bench."""
    record = run_benchmark(
        clients=96, cache_capacity=48, rounds=4, churn_per_round=2,
        latency_sample=24,
    )
    report("directory", format_record(record))
    assert record["steady_state"]["hit_rate"] >= 0.9
    assert record["latency"]["speedup"] > 1.0
    assert record["availability"]["one_shard_down"]["availability"] == 1.0
    assert record["availability"]["replica_set_down"]["errors"] == 0
    assert record["availability"]["recovered"]["availability"] == 1.0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Directory hot-cache latency and shard-loss availability."
    )
    parser.add_argument("--clients", type=int, default=FULL_SCALE["clients"])
    parser.add_argument("--shards", type=int, default=FULL_SCALE["shards"])
    parser.add_argument(
        "--replication", type=int, default=FULL_SCALE["replication"]
    )
    parser.add_argument(
        "--cache-capacity", type=int, default=FULL_SCALE["cache_capacity"],
        dest="cache_capacity",
    )
    parser.add_argument("--rounds", type=int, default=FULL_SCALE["rounds"])
    parser.add_argument(
        "--churn-per-round", type=int, default=FULL_SCALE["churn_per_round"],
        dest="churn_per_round",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--output", type=Path, default=Path("BENCH_directory.json")
    )
    args = parser.parse_args(argv)

    record = run_benchmark(
        clients=args.clients,
        shards=args.shards,
        replication=args.replication,
        cache_capacity=args.cache_capacity,
        rounds=args.rounds,
        churn_per_round=args.churn_per_round,
        seed=args.seed,
    )
    args.output.write_text(json.dumps(record, indent=2) + "\n")
    print(format_record(record))
    print(f"  wrote {args.output}")
    if not record["pass"]:
        print(
            "REGRESSION: directory gates failed "
            f"(hit_rate={record['steady_state']['hit_rate']:.3f}, "
            f"one_down={record['availability']['one_shard_down']}, "
            f"two_down={record['availability']['replica_set_down']})",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
