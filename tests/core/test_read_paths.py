"""Focused tests for the read paths, including failure cases."""

from repro.core.machines.reader import ReaderMachine
from repro.replication.protocol import MARP
from repro.net.faults import CrashSchedule, FaultPlan
from repro.replication.deployment import Deployment


class TestLocalReadSemantics:
    def test_local_read_may_be_stale(self):
        """The paper's explicit trade-off: local reads are fast but not
        guaranteed fresh. Engineer staleness: commit while the reading
        replica is down, then read as its crash window ends, before
        its catch-up's SYNC replies land."""
        faults = FaultPlan(crashes=CrashSchedule().add("s3", 0, 50_000))
        dep = Deployment(n_replicas=5, seed=70, faults=faults)
        marp = MARP(dep)
        marp.submit_write("s1", "x", "fresh")
        dep.run(until=40_000)
        # s3 is still down; the moment it is up again it catches up,
        # and a catching-up replica still serves local reads.
        dep.run(until=50_001)
        assert dep.server("s3").machine.catching_up
        record = marp.submit_read("s3", "x")
        dep.run(until=70_000)
        assert record.status == "read-done"
        assert record.value is None  # stale: never saw the commit
        assert record.extra["version"] == 0
        assert dep.server("s3").read("x").value == "fresh"  # caught up

    def test_quorum_read_not_fooled_by_one_stale_replica(self, monkeypatch):
        """A quorum read issued at a stale replica still returns the
        fresh value. Here the stale replica is s3, catching up after its
        restart; a catching-up replica leaves READQ unanswered, so the
        majority that answers holds the fresh copy.
        A stale *reply* being outvoted is the kernel's case
        (tests/machines/test_reader.py)."""
        repliers = []
        on_message = ReaderMachine.on_message

        def logged(machine, kind, payload, now):
            repliers.append(payload["from"])
            return on_message(machine, kind, payload, now)

        monkeypatch.setattr(ReaderMachine, "on_message", logged)
        faults = FaultPlan(crashes=CrashSchedule().add("s3", 0, 50_000))
        dep = Deployment(n_replicas=5, seed=71, faults=faults)
        marp = MARP(dep, read_strategy="quorum")
        marp.submit_write("s1", "x", "fresh")
        dep.run(until=50_001)  # s3 is catching up, its replies are out
        assert dep.server("s3").machine.catching_up
        assert dep.server("s3").read("x") is None  # s3 is stale
        record = marp.submit_read("s3", "x")
        dep.run(until=80_000)
        assert record.status == "read-done"
        assert record.value == "fresh"
        assert "s3" not in repliers and len(repliers) >= 3

    def test_quorum_read_fails_without_majority(self):
        crashes = CrashSchedule()
        for host in ("s2", "s3", "s4", "s5"):
            crashes.add(host, 0, 10_000_000)
        dep = Deployment(n_replicas=5, seed=72,
                         faults=FaultPlan(crashes=crashes))
        marp = MARP(dep, read_strategy="quorum")
        record = marp.submit_read("s1", "x")
        dep.run(until=100_000)
        assert record.status == "failed"
        assert record.extra["replies"] < 3


class TestAgentStateAndIdentity:
    def test_agent_state_sizes_grow_with_table(self):
        dep = Deployment(n_replicas=5, seed=73)
        marp = MARP(dep)
        record = marp.submit_write("s1", "x", 1)
        agent = marp.agents[0]
        initial = agent.suitcase_size()
        dep.run(until=100_000)
        assert record.status == "committed"
        # after touring, the Locking Table adds to the carried state
        assert agent.suitcase_size() > initial

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
