#!/usr/bin/env python
"""The paper's motivating scenario: replicas scattered over the Internet.

Five replicas on a heavy-tailed WAN with non-uniform "distances"
(random link costs), transient link faults, and one replica that crashes
mid-run and recovers. Clients at every site generate an update-dominated
workload. The cost-sorted itinerary makes agents prefer nearby replicas,
the failure policy declares unreachable replicas temporarily unavailable,
and the recovery sync catches the crashed replica up.

Run:  python examples/internet_replication.py
"""

from repro import MARP, Deployment
from repro.analysis.consistency import audit
from repro.analysis.metrics import alt, att, prk
from repro.analysis.tables import format_table
from repro.net.faults import CrashSchedule, FaultPlan, TransientLinkFaults
from repro.net.latency import wan_profile
from repro.net.topology import Topology
from repro.replication.client import attach_clients
from repro.sim.rng import RandomStreams
from repro.workload.arrivals import ExponentialArrivals
from repro.workload.mix import OperationMix


def main() -> None:
    seed = 7
    hosts = ["tokyo", "frankfurt", "saopaulo", "boston", "sydney"]

    # Geographically scattered replicas: full mesh, random pairwise
    # "distance" costs that scale the WAN latency.
    streams = RandomStreams(seed)
    topology = Topology.random_costs(
        hosts, streams.stream("geo"), low=0.5, high=2.5
    )

    # Internet conditions (paper §2): long variable latency, frequent
    # short transient failures; boston is down for two simulated minutes.
    faults = FaultPlan(
        crashes=CrashSchedule().add("boston", 30_000, 150_000),
        links=TransientLinkFaults(drop_probability=0.01),
    )

    deployment = Deployment(
        seed=seed,
        topology=topology,
        latency=wan_profile(),
        faults=faults,
    )
    marp = MARP(deployment)

    # Read-dominated workload (the regime the paper designs for) with
    # one update stream per site.
    attach_clients(
        marp,
        ExponentialArrivals(mean=2_000.0),
        OperationMix(write_fraction=0.25, keys=["catalog", "prices"]),
        max_requests_per_client=12,
    )

    deployment.run(until=3_000_000)

    records = marp.records
    committed = [r for r in records if r.status == "committed"]
    reads = [r for r in records if r.status == "read-done"]
    print(
        f"workload: {len(records)} requests -> {len(committed)} updates "
        f"committed, {len(reads)} reads served, "
        f"{len(marp.failed_requests())} failed"
    )
    print(f"ALT = {alt(records):.0f} ms, ATT = {att(records):.0f} ms (WAN)")
    print("lock acquired after K distinct visits:", {
        k: f"{100 * v:.0f}%" for k, v in prk(records, 5).items()
    })

    stats = deployment.network.stats
    print(
        f"traffic: {stats.total_messages('control')} control messages, "
        f"{stats.total_messages('agent')} agent migrations, "
        f"{stats.total_dropped()} transmissions lost to faults"
    )

    report = audit(deployment)
    print(
        f"audit after recovery: consistent={report.consistent} "
        f"complete={report.complete} commits={report.total_commits}"
    )

    rows = []
    for host in deployment.hosts:
        server = deployment.server(host)
        rows.append([
            host,
            len(server.history),
            server.recoveries,
            ", ".join(
                f"{k}=v{vv.version}" for k, vv in sorted(
                    server.store.snapshot().items()
                )
            ),
        ])
    print()
    print(format_table(
        ["replica", "commits", "recoveries", "state"], rows,
        title="replica states",
    ))


if __name__ == "__main__":
    main()
