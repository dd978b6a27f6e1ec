"""Tests for the MARP extensions: tracing, RMW, weighted voting."""

import pytest

from repro.analysis.consistency import assert_consistent
from repro.analysis.tracelog import ProtocolTrace
from repro.replication.protocol import MARP
from repro.replication.deployment import Deployment
from repro.replication.requests import Transform


class TestTracing:
    def test_disabled_by_default(self, deployment):
        marp = MARP(deployment)
        marp.submit_write("s1", "x", 1)
        deployment.run(until=50_000)
        assert deployment.trace is None

    def test_trace_records_full_lifecycle(self, deployment5):
        trace = deployment5.enable_tracing()
        marp = MARP(deployment5)
        marp.submit_write("s1", "x", 1)
        deployment5.run(until=50_000)
        counts = trace.counts()
        assert counts["dispatch"] == 1
        assert counts["visit"] >= 3
        assert counts["lock-won"] == 1
        assert counts["claim"] == 1
        assert counts["commit"] == 1
        assert counts["grant"] >= 3
        assert counts["apply"] == 5  # write-all at commit

    def test_journeys_end_in_commit(self, deployment5):
        trace = deployment5.enable_tracing()
        marp = MARP(deployment5)
        marp.submit_write("s2", "x", 1)
        deployment5.run(until=50_000)
        journeys = trace.journeys()
        assert len(journeys) == 1
        journey = next(iter(journeys.values()))
        assert journey.startswith("s2")
        assert journey.endswith("[commit]")

    def test_render_log_and_limit(self, deployment5):
        trace = deployment5.enable_tracing()
        marp = MARP(deployment5)
        marp.submit_write("s1", "x", 1)
        deployment5.run(until=50_000)
        text = trace.render_log(limit=5)
        assert "protocol trace" in text
        assert "more events" in text

    def test_capacity_bounds_memory(self, deployment5):
        trace = deployment5.enable_tracing(capacity=3)
        marp = MARP(deployment5)
        marp.submit_write("s1", "x", 1)
        deployment5.run(until=50_000)
        assert len(trace) == 3
        assert trace.dropped > 0

    def test_unknown_kind_rejected(self):
        trace = ProtocolTrace()
        with pytest.raises(ValueError):
            trace.record(0.0, "teleported")

    def test_enable_twice_returns_same_trace(self, deployment):
        first = deployment.enable_tracing()
        second = deployment.enable_tracing()
        assert first is second

    def test_for_agent_and_of_kind_filters(self, deployment5):
        trace = deployment5.enable_tracing()
        marp = MARP(deployment5)
        record = marp.submit_write("s1", "x", 1)
        deployment5.run(until=50_000)
        agent_events = trace.for_agent(record.agent_id)
        assert agent_events
        assert all(e.agent == record.agent_id for e in agent_events)
        assert len(trace.of_kind("commit")) == 1


class TestReadModifyWrite:
    def test_transform_validation(self):
        with pytest.raises(TypeError):
            Transform("not callable")

    def test_single_rmw_on_missing_key_sees_none(self, deployment5):
        marp = MARP(deployment5)
        record = marp.submit_rmw(
            "s1", "x", lambda v: 1 if v is None else v + 1
        )
        deployment5.run(until=50_000)
        assert record.status == "committed"
        assert record.value == 1
        assert deployment5.server("s4").store.read("x").value == 1

    def test_concurrent_increments_do_not_lose_updates(self, deployment5):
        marp = MARP(deployment5)
        marp.submit_write("s1", "counter", 0)
        deployment5.run(until=30_000)
        increments = [
            marp.submit_rmw(host, "counter", lambda v: v + 1, "incr")
            for host in deployment5.hosts
            for _ in range(2)
        ]
        deployment5.run(until=1_000_000)
        assert all(r.status == "committed" for r in increments)
        final = deployment5.server("s1").store.read("counter")
        assert final.value == 10  # no lost updates
        assert_consistent(deployment5)

    def test_rmw_chains_within_a_batch(self, deployment5):
        marp = MARP(deployment5, batch_size=2)
        marp.submit_write("s1", "x", 10)
        deployment5.run(until=30_000)
        first = marp.submit_rmw("s2", "x", lambda v: v * 2)
        second = marp.submit_rmw("s2", "x", lambda v: v + 1)
        deployment5.run(until=200_000)
        assert first.value == 20
        assert second.value == 21  # saw the first transform's output
        assert deployment5.server("s3").store.read("x").value == 21


class TestWeightedVoting:
    def test_vote_validation(self, deployment):
        with pytest.raises(ValueError):
            MARP(deployment, votes={"nope": 1})
        with pytest.raises(ValueError):
            MARP(deployment, votes={"s1": -1, "s2": 1, "s3": 1})
        with pytest.raises(ValueError):
            MARP(deployment, votes={"s1": 0, "s2": 0, "s3": 0})

    def test_default_votes_match_count_majority(self, deployment5):
        agent = MARP(deployment5).row.write(1, "x", 1, "s1")
        assert agent.total_votes == 5
        assert agent.vote_majority == 3
        assert agent.vote_of("s1") == 1

    def test_weighted_deployment_commits_consistently(self, deployment5):
        marp = MARP(
            deployment5,
            votes={"s1": 3, "s2": 1, "s3": 1, "s4": 1, "s5": 1},
        )
        assert marp.row.write(1, "x", 1, "s1").vote_majority == 4
        records = [
            marp.submit_write(host, "x", index)
            for index, host in enumerate(deployment5.hosts)
        ]
        deployment5.run(until=1_000_000)
        assert all(r.status == "committed" for r in records)
        assert_consistent(deployment5)

    def test_heavy_host_alone_is_a_quorum(self):
        # s1 holds 5 of 9 votes: topping s1 alone wins the lock.
        dep = Deployment(n_replicas=5, seed=20)
        marp = MARP(
            dep, votes={"s1": 5, "s2": 1, "s3": 1, "s4": 1, "s5": 1},
        )
        record = marp.submit_write("s1", "x", 1)
        dep.run(until=100_000)
        assert record.status == "committed"
        assert record.visits_to_lock == 1  # home visit sufficed

    def test_weighted_decide_unit(self):
        from repro.core.machines.identity import AgentId
        from repro.core.machines.table import LockingTable
        from repro.core.machines.priority import WIN, decide
        from repro.replication.server import SharedView

        table = LockingTable()
        a = AgentId("h", 1.0, 0)
        table.update(SharedView("s1", 1.0, (a,)))
        # unweighted: 1 of 3 tops is not a majority
        assert decide(table, 3, a).outcome != WIN
        # weighted: s1 carries 3 of 5 votes -> majority
        decision = decide(table, 3, a, votes={"s1": 3, "s2": 1, "s3": 1})
        assert decision.outcome == WIN
