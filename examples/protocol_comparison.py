#!/usr/bin/env python
"""Compare MARP against the classic message-passing protocols.

Runs the identical contended update workload (common random numbers —
same seed, same substrate) under MARP, Majority Consensus Voting,
Weighted Voting, Available Copies and Primary Copy, then prints the
latency/traffic comparison the paper argues qualitatively (T1 in
DESIGN.md).

Run:  python examples/protocol_comparison.py
"""

from repro.analysis.tables import format_table
from repro.experiments.runner import RunConfig, run_once


def main() -> None:
    protocols = [
        "marp", "mcv", "weighted-voting", "available-copies", "primary-copy",
    ]
    rows = []
    for protocol in protocols:
        config = RunConfig(
            protocol=protocol,
            n_replicas=5,
            seed=3,
            mean_interarrival=30.0,  # contended: ~33 updates/s cluster-wide
            requests_per_client=15,
        )
        result = run_once(config)
        rows.append([
            protocol,
            result.committed,
            result.failed,
            result.att,
            result.control_messages,
            result.agent_migrations,
            (result.total_messages / result.committed
             if result.committed else float("nan")),
            result.audit.consistent,
        ])
        print(f"ran {protocol:<17} ATT={result.att:8.1f} ms "
              f"msgs={result.control_messages}")

    print()
    print(format_table(
        ["protocol", "committed", "failed", "ATT(ms)", "ctl msgs",
         "agent hops", "msgs/commit", "consistent"],
        rows,
        title="T1: identical workload, 5 replicas, LAN, 30ms mean gaps",
    ))
    print(
        "\nReading the table: under contention the voting protocols burn\n"
        "retry rounds of LOCK/GRANT/ABORT messages, while MARP's agents\n"
        "queue in the Locking Lists and commit in one claim round each —\n"
        "the paper's 'low message overhead' claim. Primary-copy is the\n"
        "latency floor but is centralised (and fails when the primary\n"
        "does); available-copies trades consistency risk for speed."
    )


if __name__ == "__main__":
    main()
