"""Tests for the message-passing quorum baselines (MCV, weighted voting)."""

import pytest

from repro.analysis.consistency import audit
from repro.errors import ReplicationError
from repro.replication.deployment import Deployment
from repro.replication.protocol import ReplicationProtocol
from repro.replication.requests import READ, Transform


@pytest.fixture
def dep():
    return Deployment(n_replicas=5, seed=1)


class TestMCV:
    def test_single_write_commits_everywhere(self, dep):
        mcv = ReplicationProtocol(dep, "mcv")
        record = mcv.submit_write("s1", "x", 7)
        dep.run(until=100_000)
        assert record.status == "committed"
        for host in dep.hosts:
            assert dep.server(host).store.read("x").value == 7

    def test_lock_acquired_before_completion(self, dep):
        mcv = ReplicationProtocol(dep, "mcv")
        record = mcv.submit_write("s1", "x", 7)
        dep.run(until=100_000)
        assert record.lock_acquired_at is not None
        assert record.lock_acquired_at <= record.completed_at
        assert record.extra["lock_rounds"] == 1

    def test_concurrent_writes_stay_consistent(self, dep):
        mcv = ReplicationProtocol(dep, "mcv")
        records = [
            mcv.submit_write(host, "x", index)
            for index, host in enumerate(dep.hosts)
        ]
        dep.run(until=1_000_000)
        assert all(r.status == "committed" for r in records)
        report = audit(dep)
        assert report.consistent
        assert report.divergence_free

    def test_conflicting_writes_need_retries(self, dep):
        mcv = ReplicationProtocol(dep, "mcv")
        records = [
            mcv.submit_write(host, "x", index)
            for index, host in enumerate(dep.hosts)
        ]
        dep.run(until=1_000_000)
        rounds = [r.extra["lock_rounds"] for r in records]
        assert max(rounds) > 1  # contention forces at least one retry

    def test_quorum_read_sees_committed_value(self, dep):
        mcv = ReplicationProtocol(dep, "mcv")
        mcv.submit_write("s1", "x", "fresh")
        dep.run(until=100_000)
        record = mcv.submit_read("s3", "x")
        dep.run(until=200_000)
        assert record.status == "read-done"
        assert record.value == "fresh"
        assert record.extra["version"] == 1

    def test_versions_strictly_increase(self, dep):
        mcv = ReplicationProtocol(dep, "mcv")
        for index, host in enumerate(dep.hosts):
            mcv.submit_write(host, "x", index)
        dep.run(until=1_000_000)
        versions = dep.server("s1").history.versions_for("x")
        assert versions == sorted(set(versions))


class TestWeightedVoting:
    def test_default_is_majority(self, dep):
        wv = ReplicationProtocol(dep, "weighted-voting")
        assert wv.row.settings["write_quorum"] == 3
        assert wv.row.settings["read_quorum"] == 3

    def test_custom_votes_and_quorums(self, dep):
        wv = ReplicationProtocol(
            dep, "weighted-voting",
            votes={"s1": 3, "s2": 1, "s3": 1, "s4": 1, "s5": 1},
            read_quorum=2,
            write_quorum=6,
        )
        record = wv.submit_write("s2", "x", 1)
        dep.run(until=200_000)
        assert record.status == "committed"

    def test_quorum_intersection_enforced(self, dep):
        with pytest.raises(ValueError):
            # r+w <= 5
            ReplicationProtocol(dep, "weighted-voting", read_quorum=1, write_quorum=3)

    def test_write_quorum_must_exceed_half(self, dep):
        with pytest.raises(ValueError):
            ReplicationProtocol(dep, "weighted-voting", read_quorum=4, write_quorum=2)

    def test_votes_for_a_host_not_deployed_are_rejected(self, dep):
        with pytest.raises(ValueError, match="zz"):
            ReplicationProtocol(dep, "weighted-voting",
                     votes={"s1": 1, "s2": 1, "s3": 1, "zz": 5})

    def test_a_negative_vote_is_rejected(self, dep):
        with pytest.raises(ValueError, match=">= 0"):
            ReplicationProtocol(
                dep, "weighted-voting",
                votes={"s1": 3, "s2": 1, "s3": 1, "s4": 1, "s5": -1},
                read_quorum=3, write_quorum=4,
            )

    def test_no_votes_at_all_are_rejected(self, dep):
        with pytest.raises(ValueError, match=">= 1"):
            ReplicationProtocol(dep, "weighted-voting", votes={"s1": 0, "s2": 0},
                     read_quorum=0, write_quorum=1)

    def test_read_with_quorum_one_is_local(self, dep):
        wv = ReplicationProtocol(dep, "weighted-voting", read_quorum=3, write_quorum=3)
        record = wv.submit(dep.hosts[0], READ, "x")
        dep.run(until=100_000)
        assert record.status == "read-done"


class TestQuorumEngineEdgeCases:
    @pytest.mark.parametrize("lock_timeout", [0, -5.0])
    def test_a_lock_timeout_that_is_not_positive_is_rejected(
        self, dep, lock_timeout
    ):
        with pytest.raises(ValueError, match="lock_timeout"):
            ReplicationProtocol(dep, "mcv", lock_timeout=lock_timeout)

    @pytest.mark.parametrize("lock_ttl", [0, -5.0])
    def test_a_lease_that_is_not_positive_is_rejected(self, dep, lock_ttl):
        """A lease of no length is expired as it is granted: every LOCK
        would find its key free, and mutual exclusion would be gone."""
        with pytest.raises(ValueError, match="lock_ttl"):
            ReplicationProtocol(dep, "mcv", lock_ttl=lock_ttl)

    def test_fewer_than_one_round_is_rejected(self, dep):
        with pytest.raises(ValueError, match="max_rounds"):
            ReplicationProtocol(dep, "mcv", max_rounds=0)

    def test_failed_after_max_rounds(self):
        # A write against a majority-crashed cluster cannot assemble a
        # quorum and must fail after max_rounds.
        from repro.net.faults import CrashSchedule, FaultPlan

        crashes = CrashSchedule()
        for host in ("s3", "s4", "s5"):
            crashes.add(host, 0, 10_000_000)
        dep = Deployment(n_replicas=5, seed=0,
                         faults=FaultPlan(crashes=crashes))
        mcv = ReplicationProtocol(dep, "mcv", max_rounds=2, lock_timeout=100)
        record = mcv.submit_write("s1", "x", 1)
        dep.run(until=1_000_000)
        assert record.status == "failed"

    def test_quorum_read_with_a_majority_crashed_fails_at_lock_timeout(self):
        from repro.net.faults import CrashSchedule, FaultPlan

        crashes = CrashSchedule()
        for host in ("s3", "s4", "s5"):
            crashes.add(host, 0, 10_000_000)
        dep = Deployment(n_replicas=5, seed=0,
                         faults=FaultPlan(crashes=crashes))
        mcv = ReplicationProtocol(dep, "mcv", lock_timeout=100)
        record = mcv.submit_read("s1", "x")
        dep.run(until=1_000_000)
        assert record.status == "failed"
        assert record.completed_at == record.dispatched_at + 100

    @pytest.mark.parametrize("epoch, status", [(1, "failed"), (2, "committed")])
    def test_a_grant_after_its_round_is_not_counted_in_the_next(
        self, epoch, status
    ):
        """Round 1 (s1's own grant; s2 and s3 are down) ends at its
        deadline t=100 and round 2 starts at once. s2's GRANT landing at
        t=150 counts in round 2 only if it is round 2's; round 1's
        reaches the coordinator, which ignores it."""
        from repro.net.faults import CrashSchedule, FaultPlan

        crashes = CrashSchedule().add("s2", 0, 10_000_000)
        crashes.add("s3", 0, 10_000_000)
        dep = Deployment(n_replicas=3, seed=0,
                         faults=FaultPlan(crashes=crashes))
        mcv = ReplicationProtocol(
            dep, "mcv", lock_timeout=100, retry_backoff=0, max_rounds=2,
        )
        record = mcv.submit_write("s1", "x", 1)
        endpoint = dep.network.endpoints["s1"]
        grant = {"rid": record.request_id, "epoch": epoch, "from": "s2",
                 "votes": 1, "version": 0}
        dep.env.call_in(
            150, lambda _arg: endpoint.send("s1", "MCV_GRANT", grant)
        )
        dep.run(until=1_000_000)
        assert record.status == status
        assert record.extra["lock_rounds"] == 2
        # the coordinator left its home host's claim table when it ended,
        # and the network dropped nothing as nobody's
        assert dep.server("s1").interpreter.claims == {}
        assert dep.network.stats.expired == 0

    def test_daemon_counts_grants_and_nacks(self):
        dep = Deployment(n_replicas=3, seed=0)
        mcv = ReplicationProtocol(dep, "mcv")
        for host in dep.hosts:
            mcv.submit_write(host, "x", 1)
        dep.run(until=1_000_000)
        grants = sum(
            dep.server(host).interpreter.participants["MCV_LOCK"].grants_given
            for host in dep.hosts
        )
        assert grants >= 3  # at least one full write quorum granted


@pytest.mark.parametrize("name", ["mcv", "primary-copy"])
def test_a_baseline_refuses_a_read_modify_write(name):
    """Only a MARP agent fetches the freshest copy before it applies a
    ``Transform``; a baseline's write would store the object itself."""
    dep = Deployment(n_replicas=3, seed=0)
    protocol = ReplicationProtocol(dep, name)
    with pytest.raises(ReplicationError, match="read-modify-write"):
        protocol.submit_write("s1", "x", Transform(lambda v: v + 1, "incr"))
    with pytest.raises(ReplicationError, match="read-modify-write"):
        protocol.submit_rmw("s1", "x", lambda v: v + 1)
    assert protocol.records == []
    dep.run(until=100_000)
    assert all(dep.server(host).store.read("x") is None for host in dep.hosts)
