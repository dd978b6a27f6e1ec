#!/usr/bin/env python
"""The live backend: real threads, real pickled agent migration.

The DES backend reproduces the figures; this backend reproduces the
*prototype*: every replica server is an OS thread (or process — pass
``--process``) with its own mailbox, and an agent migration is a genuine
pickle round-trip over a latency-injected queue, like an Aglet being
serialised between Tahiti servers. The MARP decision logic
(:func:`repro.core.machines.priority.decide` over the Locking Table) is
the very same code the simulator runs.

Run:  python examples/live_runtime.py [--process]
"""

import sys
import time

from repro.runtime import LiveCluster


def main() -> None:
    backend = "process" if "--process" in sys.argv else "thread"
    n_writes = 12

    print(f"starting 3 live replica hosts (backend: {backend}) ...")
    started = time.monotonic()
    with LiveCluster(n_replicas=3, backend=backend, seed=1) as cluster:
        for index in range(n_writes):
            home = cluster.hosts[index % len(cluster.hosts)]
            cluster.submit_write(home, "inventory", 100 + index)
        records = cluster.wait_for(n_writes, timeout=60)
    elapsed = time.monotonic() - started

    committed = [r for r in records if r["status"] == "committed"]
    print(
        f"{len(committed)}/{n_writes} updates committed in "
        f"{elapsed:.1f}s wall time"
    )
    for record in sorted(records, key=lambda r: r["completed_at"]):
        lock_ms = record["completed_at"] - record["dispatched_at"]
        print(
            f"  request {record['request_id']:>2} from {record['home']}: "
            f"{record['status']}, {record['visits_to_lock']} visits, "
            f"{record['hops']} migrations, {lock_ms:.0f} ms"
        )

    report = cluster.audit()
    print(
        f"live audit: consistent={report.consistent}, "
        f"{report.total_commits} commits"
    )
    for host, final in sorted(cluster._finals.items()):
        print(f"  {host}: store={final['store']}")


if __name__ == "__main__":
    main()
