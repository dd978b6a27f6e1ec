"""Behavioural tests for the update agent (Algorithm 1)."""

import pytest

from repro.replication.protocol import MARP
from repro.net.faults import CrashSchedule, FaultPlan
from repro.replication.deployment import Deployment


class TestSingleUpdate:
    def test_commits_at_all_replicas(self, deployment5):
        marp = MARP(deployment5)
        record = marp.submit_write("s1", "x", 42)
        deployment5.run(until=100_000)
        assert record.status == "committed"
        for host in deployment5.hosts:
            assert deployment5.server(host).store.read("x").value == 42

    def test_uncontended_visits_exactly_majority(self, deployment5):
        marp = MARP(deployment5)
        record = marp.submit_write("s1", "x", 1)
        deployment5.run(until=100_000)
        assert record.visits_to_lock == 3  # ceil((5+1)/2)

    def test_timeline_fields_populated(self, deployment5):
        marp = MARP(deployment5)
        record = marp.submit_write("s2", "x", 1)
        deployment5.run(until=100_000)
        assert record.dispatched_at is not None
        assert record.lock_acquired_at >= record.dispatched_at
        # A lone writer commits on its visit grants the instant it wins
        # the lock: no claim round lies between the two stamps.
        assert record.completed_at == record.lock_acquired_at
        assert record.agent_id is not None
        assert record.extra["win_reason"] == "majority"

    def test_versions_increment_across_updates(self, deployment5):
        marp = MARP(deployment5)
        marp.submit_write("s1", "x", "first")
        deployment5.run(until=50_000)
        marp.submit_write("s2", "x", "second")
        deployment5.run(until=100_000)
        server = deployment5.server("s3")
        assert server.store.read("x").version == 2
        assert server.store.read("x").value == "second"

    def test_distinct_keys_version_independently(self, deployment5):
        marp = MARP(deployment5)
        marp.submit_write("s1", "a", 1)
        marp.submit_write("s2", "b", 2)
        deployment5.run(until=100_000)
        server = deployment5.server("s1")
        assert server.store.read("a").version == 1
        assert server.store.read("b").version == 1

    def test_agent_disposed_after_commit(self, deployment5):
        marp = MARP(deployment5)
        marp.submit_write("s1", "x", 1)
        deployment5.run(until=100_000)
        assert marp.agents == []
        assert marp.total_agent_hops() >= 2

    def test_empty_batch_rejected(self, deployment5):
        from repro.core.machines.identity import AgentId

        marp = MARP(deployment5)
        with pytest.raises(ValueError):
            marp.row.write(1, "x", 1, "s1", AgentId("s1", 0.0, 0), [])


class TestFinishedAgentsLeave:
    def test_a_drained_full_record_run_holds_no_agent_or_table(self):
        """An agent leaves the run when it finishes, in every accounting
        mode: marp_contended_n5's regime (N=5, 16 Zipf-0.9 keys, 60 ms
        gaps), full records, 40 writes a client. Keeping them held one
        ``Coordinator`` and one ``LockingTable`` per write."""
        import gc

        from repro.core.machines.table import LockingTable
        from repro.replication.protocol import Coordinator
        from repro.replication.client import attach_clients
        from repro.workload.arrivals import ExponentialArrivals
        from repro.workload.mix import OperationMix

        def census():
            objects = gc.get_objects()
            return (
                sum(isinstance(o, Coordinator) for o in objects),
                sum(isinstance(o, LockingTable) for o in objects),
            )

        gc.collect()
        before = census()
        deployment = Deployment(n_replicas=5, seed=7)
        marp = MARP(deployment)
        attach_clients(
            marp,
            ExponentialArrivals(60.0),
            OperationMix(
                write_fraction=1.0, keys=[f"k{i}" for i in range(16)],
                key_skew=0.9,
            ),
            max_requests_per_client=40,
        )
        deployment.run(until=2_000_000)
        assert len(marp.completed_writes()) == len(marp.records) == 200
        assert marp.agents == []
        assert census() == before
        # the hops of every agent are still counted (pinned: the value
        # since each key has its own lock at every replica; 536 while one
        # lock served every key, 654 before the agent next in line
        # claimed behind the winner instead of parking and touring again)
        assert marp.total_agent_hops() == 418


class TestContention:
    def test_concurrent_writes_all_commit(self, deployment5):
        marp = MARP(deployment5)
        records = [
            marp.submit_write(host, "x", index)
            for index, host in enumerate(deployment5.hosts)
        ]
        deployment5.run(until=500_000)
        assert all(r.status == "committed" for r in records)

    def test_concurrent_writes_single_total_order(self, deployment5):
        marp = MARP(deployment5)
        for index, host in enumerate(deployment5.hosts):
            marp.submit_write(host, "x", index)
        deployment5.run(until=500_000)
        identities = {
            tuple(deployment5.server(h).history.identities())
            for h in deployment5.hosts
        }
        assert len(identities) == 1
        versions = [v for _r, _k, v in next(iter(identities))]
        assert versions == [1, 2, 3, 4, 5]

    def test_visit_bounds_respected_under_contention(self, deployment5):
        marp = MARP(deployment5)
        for index, host in enumerate(deployment5.hosts * 2):
            marp.submit_write(host, "x", index)
        deployment5.run(until=1_000_000)
        for record in marp.completed_writes():
            assert 3 <= record.visits_to_lock <= 5


class TestFailures:
    def test_commits_with_minority_down(self):
        faults = FaultPlan(crashes=CrashSchedule().add("s5", 0, 1_000_000))
        dep = Deployment(n_replicas=5, seed=0, faults=faults)
        marp = MARP(dep)
        record = marp.submit_write("s1", "x", 1)
        dep.run(until=1_000_000)
        assert record.status == "committed"
        for host in ("s1", "s2", "s3", "s4"):
            assert dep.server(host).store.read("x").value == 1

    def test_crashed_replica_catches_up_after_recovery(self):
        faults = FaultPlan(crashes=CrashSchedule().add("s3", 0, 5_000))
        dep = Deployment(n_replicas=5, seed=0, faults=faults)
        marp = MARP(dep)
        record = marp.submit_write("s1", "x", "while-down")
        dep.run(until=100_000)
        assert record.status == "committed"
        assert dep.server("s3").store.read("x").value == "while-down"


class TestReadPaths:
    def test_local_read_returns_committed_value(self, deployment5):
        marp = MARP(deployment5)
        marp.submit_write("s1", "x", 5)
        deployment5.run(until=50_000)
        record = marp.submit_read("s2", "x")
        deployment5.run(until=60_000)
        assert record.status == "read-done"
        assert record.value == 5
        assert record.extra["read_strategy"] == "local"

    def test_local_read_of_missing_key(self, deployment5):
        marp = MARP(deployment5)
        record = marp.submit_read("s1", "ghost")
        deployment5.run(until=10_000)
        assert record.status == "read-done"
        assert record.value is None

    def test_quorum_read_sees_majority_freshness(self, deployment5):
        marp = MARP(deployment5, read_strategy="quorum")
        marp.submit_write("s1", "x", "committed")
        deployment5.run(until=50_000)
        record = marp.submit_read("s2", "x")
        deployment5.run(until=60_000)
        assert record.status == "read-done"
        assert record.value == "committed"
        assert record.extra["read_strategy"] == "quorum"
        assert record.extra["replies"] >= 3


class TestBatching:
    def test_batched_writes_share_one_agent(self, deployment5):
        marp = MARP(deployment5, batch_size=3)
        records = [marp.submit_write("s1", "x", i) for i in range(3)]
        assert len(marp.agents) == 1
        deployment5.run(until=100_000)
        assert all(r.status == "committed" for r in records)
        assert marp.agents == []
        assert len({r.agent_id for r in records}) == 1

    def test_partial_batch_flushed_by_timer(self, deployment5):
        from repro.replication.protocol import BATCH_FLUSH_INTERVAL

        marp = MARP(deployment5, batch_size=4)
        record = marp.submit_write("s1", "x", 1)
        deployment5.run(until=100_000)
        assert record.status == "committed"
        # the partial batch left once, when the flush timer fired
        assert record.dispatched_at == BATCH_FLUSH_INTERVAL

    def test_batched_versions_sequential(self, deployment5):
        marp = MARP(deployment5, batch_size=2)
        marp.submit_write("s1", "x", "a")
        marp.submit_write("s1", "x", "b")
        deployment5.run(until=100_000)
        server = deployment5.server("s4")
        assert server.store.read("x").version == 2
        assert server.store.read("x").value == "b"
        assert [v for _r, _k, v in server.history.identities()] == [1, 2]


class TestPrivateStream:
    """An agent's stream is a function of its name, so it is derived at
    the first draw: most agents never back off and never need one."""

    def test_a_run_without_a_failed_claim_creates_no_agent_stream(
        self, deployment5
    ):
        marp = MARP(deployment5)
        for n, home in enumerate(deployment5.hosts):
            marp.submit_write(home, f"k{n}", n)
        agents = list(marp.agents)
        deployment5.run(until=100_000)
        assert [r.status for r in marp.records] == ["committed"] * 5
        assert all(r.extra["failed_claims"] == 0 for r in marp.records)
        assert len(agents) == 5
        assert not any(
            f"agent.{agent.agent_id}" in deployment5.streams
            for agent in agents
        )

    def test_first_back_off_is_the_first_draw_of_the_named_stream(
        self, deployment5
    ):
        from repro.sim.rng import RandomStreams

        marp = MARP(deployment5)
        marp.submit_write("s1", "x", 1)
        agent = marp.agents[0]
        name = f"agent.{agent.agent_id}"
        assert name not in deployment5.streams
        eager = RandomStreams(deployment5.streams.seed).stream(name)
        drawn = deployment5.server("s1").sample_backoff(agent, 25.0)
        assert drawn == eager.exponential(25.0)
        assert name in deployment5.streams


class TestSuitcaseSizing:
    def test_running_size_equals_the_sized_description_at_every_hop(
        self, monkeypatch
    ):
        """A migration is sized from ``suitcase_size()``, which must be
        ``estimate_size`` of the suitcase's executable description —
        identifier, Request List, sorted un-visited list, Locking Table
        — whenever it is asked: on first tours, and after a park has
        reset the un-visited list for a refresh tour. N=12, every host
        writing the same key at once."""
        from repro.net.message import estimate_size
        from repro.replication.protocol import Coordinator

        running = Coordinator.suitcase_size
        asked = []

        def checked(agent):
            size = running(agent)
            assert size == estimate_size({
                "agent_id": agent.agent_id,
                "requests": [
                    (r.request_id, r.key, r.value) for r in agent.records
                ],
                "unvisited": sorted(agent.core.tour_remaining),
                "table": agent.core.table,
            })
            asked.append((agent.core.park_count, len(agent.core.tour_remaining)))
            return size

        monkeypatch.setattr(Coordinator, "suitcase_size", checked)
        deployment = Deployment(n_replicas=12, seed=23)
        marp = MARP(deployment)
        records = [
            marp.submit_write(host, "x", index)
            for index, host in enumerate(deployment.hosts)
        ]
        deployment.run(until=1_000_000)
        assert all(record.status == "committed" for record in records)
        # one sizing per migration (no attempt failed: one per hop)
        assert len(asked) == marp.total_agent_hops()
        # sized mid-tour (un-visited list part-way down) and on a refresh
        # tour (list reset after a park)
        assert any(parks == 0 and 0 < left < 10 for parks, left in asked)
        assert any(parks > 0 and left > 0 for parks, left in asked)
