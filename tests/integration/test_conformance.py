"""Cross-backend conformance: identical per-key commit chains.

Both execution backends — the discrete-event simulator and the live
thread runtime — now drive the same sans-IO kernel machines, so they are
required to produce *identical* per-key commit chains for the same
seeded scenario, faults included. Divergence between backends is a test
failure here, not a latent bug.

Scenario design: writes are submitted causally (each one only after the
previous committed), so the chain each key must show is fully determined
by the workload — version ``i`` belongs to the ``i``-th write of that
key on *any* correct backend, regardless of scheduling, latency jitter,
or when exactly a fault lands. Chains are normalized to
``{key: [(version, submission_index), ...]}`` and hashed with the same
canonical-JSON + sha256 recipe as ``repro.experiments.runner
.result_fingerprint``.

Both backends exchange lock views by the acked-sequence protocol
(deltas to returning visitors, full snapshots otherwise), so chain
equality here is also the end-to-end check that the exchange never
changes *what* commits; the last test drives the DES through a crash
recovery to pin the full-snapshot fallback on that path.

This file is the ``runtime-parity`` CI job's workload.
"""

import hashlib
import json
from dataclasses import dataclass
from typing import Dict, List, Tuple

import pytest

from repro.replication.protocol import MARP
from repro.net.faults import CrashSchedule, FaultPlan
from repro.replication.deployment import Deployment
from repro.runtime import LiveCluster

FOREVER = 1e15


@dataclass(frozen=True)
class Scenario:
    """One seeded workload, expressed in backend-neutral host indices."""

    name: str
    n: int
    seed: int
    #: (home_index, key) per write, submitted strictly in order.
    writes: Tuple[Tuple[int, str], ...]
    #: host indices down for the whole run (a majority must stay up).
    down_from_start: Tuple[int, ...] = ()
    #: (after_write_number, host_index): crash mid-run, once that many
    #: writes have committed.
    midrun_crash: Tuple[int, int] = ()


def _rr(indices, keys, count):
    """Round-robin (home_index, key) pairs."""
    return tuple(
        (indices[i % len(indices)], keys[i % len(keys)])
        for i in range(count)
    )


SCENARIOS = [
    Scenario(
        name="n3_baseline",
        n=3,
        seed=101,
        writes=_rr([1, 2, 3], ["x", "y", "z"], 9),
    ),
    Scenario(
        name="n3_one_replica_down",
        n=3,
        seed=202,
        writes=_rr([1, 2], ["x", "y"], 8),
        down_from_start=(3,),
    ),
    Scenario(
        name="n5_two_replicas_down",
        n=5,
        seed=303,
        writes=_rr([1, 2, 3], ["x", "y", "z"], 9),
        down_from_start=(4, 5),
    ),
    Scenario(
        name="n5_midrun_crash",
        n=5,
        seed=404,
        writes=_rr([1, 2, 3, 4], ["x", "y"], 10),
        midrun_crash=(4, 5),
    ),
]


def expected_chains(scenario: Scenario) -> Dict[str, List[Tuple[int, int]]]:
    """What any correct backend must commit: per-key versions 1..m, each
    owned by that key's i-th submitted write."""
    chains: Dict[str, List[Tuple[int, int]]] = {}
    for index, (_home, key) in enumerate(scenario.writes, start=1):
        chain = chains.setdefault(key, [])
        chain.append((len(chain) + 1, index))
    return chains


def chain_fingerprint(chains: Dict[str, List[Tuple[int, int]]]) -> str:
    text = json.dumps(
        {k: [list(pair) for pair in v] for k, v in sorted(chains.items())},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def crashed_indices(scenario: Scenario) -> set:
    down = set(scenario.down_from_start)
    if scenario.midrun_crash:
        down.add(scenario.midrun_crash[1])
    return down


# -- DES backend -------------------------------------------------------------


def run_des(scenario: Scenario) -> Dict[str, List[Tuple[int, int]]]:
    faults = FaultPlan.none()
    for index in scenario.down_from_start:
        faults.crashes.add(f"s{index}", 0.0, FOREVER)
    dep = Deployment(n_replicas=scenario.n, seed=scenario.seed, faults=faults)
    marp = MARP(dep)
    rid_to_index: Dict[int, int] = {}
    for number, (home_index, key) in enumerate(scenario.writes, start=1):
        record = marp.submit_write(
            f"s{home_index}", key, f"{scenario.name}-{number}"
        )
        rid_to_index[record.request_id] = number
        deadline = dep.env.now + 2_000_000
        while record.status != "committed":
            assert dep.env.now < deadline, (
                f"{scenario.name}: DES write {number} did not commit"
            )
            dep.run(until=dep.env.now + 200)
        if scenario.midrun_crash and number == scenario.midrun_crash[0]:
            dep.faults.crashes.add(
                f"s{scenario.midrun_crash[1]}", dep.env.now + 0.001, FOREVER
            )
    dep.run(until=dep.env.now + 10_000)  # let trailing COMMITs settle

    observers = [
        f"s{i}" for i in range(1, scenario.n + 1)
        if i not in crashed_indices(scenario)
    ]
    merged: Dict[str, Dict[int, int]] = {}
    for host in observers:
        for commit in dep.server(host).history:
            merged.setdefault(commit.key, {})[commit.version] = (
                rid_to_index[commit.request_id]
            )
    return {key: sorted(v.items()) for key, v in merged.items()}


# -- live thread backend -----------------------------------------------------


def run_live(scenario: Scenario) -> Dict[str, List[Tuple[int, int]]]:
    with LiveCluster(n_replicas=scenario.n, backend="thread",
                     seed=scenario.seed) as cluster:
        for index in scenario.down_from_start:
            cluster.transport.isolate(f"h{index}")
        rid_to_index: Dict[int, int] = {}
        for number, (home_index, key) in enumerate(scenario.writes, start=1):
            rid = cluster.submit_write(
                f"h{home_index}", key, f"{scenario.name}-{number}"
            )
            rid_to_index[rid] = number
            records = cluster.wait_for(number, timeout=30.0)
            assert records[-1]["status"] == "committed", (
                f"{scenario.name}: live write {number} failed"
            )
            if scenario.midrun_crash and number == scenario.midrun_crash[0]:
                cluster.transport.isolate(f"h{scenario.midrun_crash[1]}")
        # shutdown waits for the trailing COMMIT broadcasts to land
        finals = cluster.shutdown()

    observers = [
        f"h{i}" for i in range(1, scenario.n + 1)
        if i not in crashed_indices(scenario)
    ]
    merged: Dict[str, Dict[int, int]] = {}
    for host in observers:
        for key, version, request_id, *_ in finals[host]["history"]:
            merged.setdefault(key, {})[version] = rid_to_index[request_id]
    return {key: sorted(v.items()) for key, v in merged.items()}


# -- the conformance contract ------------------------------------------------


@pytest.mark.parametrize(
    "scenario", SCENARIOS, ids=[s.name for s in SCENARIOS]
)
class TestCommitChainConformance:
    def test_backends_produce_identical_chains(self, scenario):
        expected = expected_chains(scenario)
        des_chains = run_des(scenario)
        live_chains = run_live(scenario)
        assert des_chains == expected
        assert live_chains == expected
        assert chain_fingerprint(des_chains) == chain_fingerprint(live_chains)


# -- the full-snapshot fallback, end to end ------------------------------------


def test_recovery_forces_the_snapshot_fallback_and_chains_stay_gapless():
    """s3 crashes and recovers (SYNC resets its journal), then s2 dies
    for good so every later agent must come back to s3: the first
    returning visitor's acked base is gone and it is handed a full
    snapshot, the next one a delta cut against that snapshot."""
    crashes = CrashSchedule()
    crashes.add("s3", 5_000.0, 10_000.0)
    crashes.add("s2", 15_000.0, FOREVER)
    dep = Deployment(n_replicas=3, seed=505, faults=FaultPlan(crashes=crashes))
    marp = MARP(dep)

    def write(home: str, number: int) -> None:
        record = marp.submit_write(home, "x", f"recovery-{number}")
        deadline = dep.env.now + 2_000_000
        while record.status != "committed":
            assert dep.env.now < deadline, f"write {number} did not commit"
            dep.run(until=dep.env.now + 200)

    for number, home in enumerate(("s1", "s2", "s3"), start=1):
        write(home, number)
    dep.run(until=6_000.0)  # s3 is down
    write("s1", 4)
    write("s2", 5)
    dep.run(until=16_000.0)  # s3 recovered, s2 gone
    recovered = dep.server("s3").machine
    assert recovered.recoveries == 1 and recovered.journal.resets == 1
    for number, home in enumerate(("s1", "s3", "s1"), start=6):
        write(home, number)
    dep.run(until=dep.env.now + 10_000)

    assert recovered.fallbacks_served >= 1
    assert recovered.deltas_served >= 1
    versions = {
        commit.version
        for host in ("s1", "s3")
        for commit in dep.server(host).history
    }
    assert versions == set(range(1, 9))
    assert dep.server("s3").store.read("x").version == 8
