#!/usr/bin/env python
"""Quickstart: a 5-replica MARP cluster handling a handful of updates.

Builds the paper's deployment (5 mobile-agent-enabled replica servers on
a LAN), submits a few updates and reads through the public API, runs the
simulation to quiescence, and audits that every replica converged to the
identical state in the identical order.

Run:  python examples/quickstart.py
"""

from repro import Deployment, MARP
from repro.analysis.consistency import assert_consistent


def main() -> None:
    # 1. Build the replicated system: 5 servers, full-mesh LAN,
    #    deterministic under the given seed.
    deployment = Deployment(n_replicas=5, seed=42)
    marp = MARP(deployment)

    # 2. Submit updates from different home servers. Each submission
    #    dispatches a mobile agent that tours the replicas, wins the
    #    distributed lock by topping a majority of Locking Lists, and
    #    commits via UPDATE/ACK/COMMIT.
    writes = [
        marp.submit_write("s1", "account", 100),
        marp.submit_write("s3", "account", 250),
        marp.submit_write("s5", "account", 175),
    ]

    # 3. Run the simulation until everything settles.
    deployment.run(until=60_000)

    # 4. A read is served from the local replica (the paper's fast path).
    read = marp.submit_read("s2", "account")
    deployment.run(until=70_000)

    print("Update requests:")
    for record in writes:
        print(
            f"  #{record.request_id} from {record.home}: {record.status}, "
            f"lock after visiting {record.visits_to_lock} servers "
            f"({record.lock_time:.1f} ms), total {record.total_time:.1f} ms"
        )
    print(f"Read at s2 -> {read.value} (version {read.extra['version']})")

    # 5. Audit: identical committed history at every replica.
    report = assert_consistent(deployment)
    print(
        f"Consistency audit: {report.total_commits} commits, "
        f"identical histories at all replicas: {report.identical_histories}"
    )
    for host in deployment.hosts:
        entry = deployment.server(host).store.read("account")
        print(f"  {host}: account = {entry.value} (v{entry.version})")


if __name__ == "__main__":
    main()
