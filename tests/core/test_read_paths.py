"""Focused tests for the read paths, including failure cases."""

from repro.core.config import MARPConfig
from repro.core.protocol import MARP
from repro.net.faults import CrashSchedule, FaultPlan
from repro.replication.deployment import Deployment


class TestLocalReadSemantics:
    def test_local_read_may_be_stale(self):
        """The paper's explicit trade-off: local reads are fast but not
        guaranteed fresh. Engineer staleness: commit while the reading
        replica is down, then read before its recovery sync."""
        from repro.replication.server import ReplicaConfig

        faults = FaultPlan(crashes=CrashSchedule().add("s3", 0, 50_000))
        dep = Deployment(
            n_replicas=5, seed=70, faults=faults,
            replica_config=ReplicaConfig(recover_on_restart=False),
        )
        marp = MARP(dep)
        marp.submit_write("s1", "x", "fresh")
        dep.run(until=40_000)
        # s3 is still down; once it's "up" again (no sync configured),
        # a local read there misses the committed value.
        dep.run(until=60_000)
        record = marp.submit_read("s3", "x")
        dep.run(until=70_000)
        assert record.status == "read-done"
        assert record.value is None  # stale: never saw the commit
        assert record.extra["version"] == 0

    def test_quorum_read_not_fooled_by_one_stale_replica(self):
        from repro.replication.server import ReplicaConfig

        faults = FaultPlan(crashes=CrashSchedule().add("s3", 0, 50_000))
        dep = Deployment(
            n_replicas=5, seed=71, faults=faults,
            replica_config=ReplicaConfig(recover_on_restart=False),
        )
        marp = MARP(dep, config=MARPConfig(read_strategy="quorum"))
        marp.submit_write("s1", "x", "fresh")
        dep.run(until=60_000)
        record = marp.submit_read("s3", "x")
        dep.run(until=80_000)
        assert record.status == "read-done"
        assert record.value == "fresh"  # the majority outvotes s3

    def test_quorum_read_fails_without_majority(self):
        crashes = CrashSchedule()
        for host in ("s2", "s3", "s4", "s5"):
            crashes.add(host, 0, 10_000_000)
        dep = Deployment(n_replicas=5, seed=72,
                         faults=FaultPlan(crashes=crashes))
        marp = MARP(dep, config=MARPConfig(read_strategy="quorum",
                                           ack_timeout=200.0))
        record = marp.submit_read("s1", "x")
        dep.run(until=100_000)
        assert record.status == "failed"
        assert record.extra["replies"] < 3


class TestAgentStateAndIdentity:
    def test_agent_state_sizes_grow_with_table(self):
        from repro.net.message import estimate_size

        dep = Deployment(n_replicas=5, seed=73)
        marp = MARP(dep)
        record = marp.submit_write("s1", "x", 1)
        agent = marp.agents[0]
        initial = estimate_size(agent.state())
        dep.run(until=100_000)
        assert record.status == "committed"
        # after touring, the Locking Table adds to the carried state
        assert estimate_size(agent.state()) > initial

    def test_travel_log_matches_visits(self):
        dep = Deployment(n_replicas=3, seed=74)
        marp = MARP(dep)
        marp.submit_write("s2", "x", 1)
        agent = marp.agents[0]  # held: a finished agent leaves the run
        dep.run(until=100_000)
        assert marp.agents == [] and agent.disposed
        hosts_visited = [h for _t, h in agent.travel_log]
        assert hosts_visited[0] == "s2"  # home first
        assert len(hosts_visited) == agent.hops + 1
