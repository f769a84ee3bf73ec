"""Chaos engineering for the RBC serving stack: a fault-injected storm.

Authenticates a fleet of PUF clients across a lossy WAN — messages drop,
arrive corrupted, duplicate, reorder, and spike in latency — while one
of the CA's two search devices is lost mid-storm. The served path keeps
the service honest: clients retry with backoff under deadlines, the
fleet dispatcher's health monitor quarantines the dead device, the
surviving device serves every request, and a passing probe reinstates
the victim once it is back. Every stochastic choice flows from one seed,
so the run (quarantines and reinstatements included) is exactly
reproducible.

    python examples/chaos_storm.py
"""

from repro.reliability.chaos import NAMED_PLANS, run_named_storm


def main() -> None:
    print("available fault plans:", ", ".join(sorted(NAMED_PLANS)), "\n")

    # A small deterministic storm first: 12 clients, 15% drop, 5% frame
    # corruption, one device-failure episode.
    report = run_named_storm("smoke", seed=1)
    print(report.render())
    print()

    # The same storm with the same seed is byte-identical — chaos you
    # can put in CI and diff.
    again = run_named_storm("smoke", seed=1)
    print("same seed reproduces the report exactly:", report == again)
    print()

    # The full acceptance storm: 100 clients on a 20%-drop WAN with one
    # device outage six clients long.
    report = run_named_storm("lossy-wan", seed=0)
    print(report.render())
    print()
    print(
        "every outage quarantined and reinstated:",
        report.quarantines == report.reinstatements == report.device_episodes,
    )


if __name__ == "__main__":
    main()
