"""Regression pins of MARP's two READR takers: the client quorum read
and the read-modify-write base fetch.

Both reach their taker through the home host's claim table. The
values were measured while the quorum read was still a network
conversation of its own, and a move of the reader must not change
them: same records, same messages, same bytes. They were re-pinned
when lock views stopped carrying version vectors and every UPDATE
began to name its keys (smaller suitcases, slightly larger UPDATEs:
the same commit and read counts, other timings and bytes), and again
when views stopped carrying finished sets and the UAL kept only queued
ids (smaller suitcases: the same counts and control traffic, other
completion times), and again when an agent that met no rival began to
commit on its visit grants (the same commit and read counts; fewer
UPDATE rounds, RELEASEs of visit grants given back, other timings).
"""

import hashlib
import json

import pytest

from repro.replication.protocol import MARP
from repro.experiments.cache import result_fingerprint
from repro.experiments.runner import RunConfig, run_once
from repro.net.faults import CrashSchedule, FaultPlan
from repro.replication.deployment import Deployment


def quorum_run(seed, write_fraction, **overrides):
    fields = dict(
        protocol_kwargs={"read_strategy": "quorum"},
        write_fraction=write_fraction, n_keys=8,
        key_skew=0.9, requests_per_client=60, mean_interarrival=30.0,
        seed=seed,
    )
    return run_once(RunConfig(**{**fields, **overrides}))


@pytest.mark.parametrize("seed,write_fraction,prefix,commits,reads", [
    # ids name the inputs only, so a re-pin keeps the test's name
    pytest.param(1, 0.5, "6c25d3587c0a54a0", 152, 148, id="seed1-w0.5"),
    pytest.param(1, 0.1, "79eeedb7815555ae", 23, 277, id="seed1-w0.1"),
    pytest.param(2, 0.5, "341d4a841a67688b", 146, 154, id="seed2-w0.5"),
    pytest.param(2, 0.1, "188373836112399a", 29, 271, id="seed2-w0.1"),
])
def test_quorum_read_runs_are_pinned(seed, write_fraction, prefix, commits,
                                     reads):
    result = quorum_run(seed, write_fraction)
    assert result.committed == commits
    assert sum(r.status == "read-done" for r in result.records) == reads
    assert result_fingerprint(result).startswith(prefix)


def increment(value):
    return (value or 0) + 1


def test_concurrent_rmw_then_quorum_reads_are_pinned():
    """15 concurrent increments spread over 5 hosts (each winner fetches
    its base with a tuple-id READR), then one quorum read per host."""
    deployment = Deployment(n_replicas=5, seed=9)
    marp = MARP(deployment, read_strategy="quorum")
    hosts = deployment.hosts
    for n in range(15):
        marp.submit_rmw(hosts[n % 5], "ctr", increment)
    deployment.run()
    for host in hosts:
        marp.submit_read(host, "ctr")
    deployment.run()
    stats = deployment.network.stats
    rows = [(r.status, repr(r.value), r.completed_at) for r in marp.records]
    assert sorted(int(value) for _s, value, _t in rows[:15]) == list(
        range(1, 16)
    )
    assert [row[:2] for row in rows[15:]] == [("read-done", "15")] * 5
    assert (stats.total_messages("control"),
            stats.total_bytes("control")) == (308, 47174)
    text = json.dumps([rows, stats.total_messages("control"),
                       stats.total_bytes("control")])
    assert hashlib.sha256(text.encode()).hexdigest().startswith(
        "bc5e1157965b1fd1"
    )


@pytest.mark.parametrize("crash", [False, True])
def test_a_quorum_read_run_leaves_no_claim_behind(crash):
    """Every read and every claim round resolved, on time or not, takes
    itself out of the claim table: nothing is left once the run drains
    (and a surplus READR found no taker, rather than an old one)."""
    faults = None
    if crash:
        crashes = CrashSchedule()
        for host in ("s2", "s3", "s4"):  # a majority, for a while
            crashes.add(host, 200.0, 1_200.0)
        faults = FaultPlan(crashes=crashes)
    result = quorum_run(3, 0.5, requests_per_client=20, faults=faults)
    statuses = {r.status for r in result.records if r.op == "read"}
    assert statuses == ({"read-done", "failed"} if crash else {"read-done"})
    for server in result.deployment.servers.values():
        assert server.interpreter.claims == {}
