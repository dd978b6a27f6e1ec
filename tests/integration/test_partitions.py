"""Network partition integration tests.

The paper contrasts quorum protocols (partition-safe) with Available
Copies ("vulnerable to communication partitions"). These tests exercise
both sides of that contrast plus partition healing.
"""

from repro.analysis.consistency import audit
from repro.replication.protocol import MARP
from repro.net.faults import FaultPlan, TransientLinkFaults
from repro.replication.deployment import Deployment
from repro.replication.protocol import ReplicationProtocol

FOREVER = 100_000_000.0


def partitioned_deployment(seed, majority_side, minority_side,
                           start=0.0, end=FOREVER):
    links = TransientLinkFaults().add_partition(
        majority_side, minority_side, start, end,
    )
    return Deployment(
        n_replicas=len(majority_side) + len(minority_side),
        seed=seed,
        faults=FaultPlan(links=links),
    )


class TestPartitionValidation:
    def test_partition_sides_must_be_disjoint(self):
        import pytest

        from repro.errors import NetworkError

        with pytest.raises(NetworkError):
            TransientLinkFaults().add_partition(
                ["a", "b"], ["b", "c"], 0, 10,
            )
        with pytest.raises(NetworkError):
            TransientLinkFaults().add_partition([], ["a"], 0, 10)


class TestMARPUnderPartition:
    def test_majority_side_commits_minority_side_stalls(self):
        dep = partitioned_deployment(
            seed=60, majority_side=["s1", "s2", "s3"],
            minority_side=["s4", "s5"],
        )
        marp = MARP(dep)
        majority_write = marp.submit_write("s1", "x", "majority")
        minority_write = marp.submit_write("s4", "x", "minority")
        dep.run(until=60_000)
        assert majority_write.status == "committed"
        assert minority_write.status == "pending"  # stalls, never splits
        # Nothing diverged: the minority simply has not applied anything.
        report = audit(dep)
        assert report.divergence_free
        assert report.monotone

    def test_partition_heals_and_minority_catches_up(self):
        dep = partitioned_deployment(
            seed=61, majority_side=["s1", "s2", "s3"],
            minority_side=["s4", "s5"],
            start=0.0, end=30_000.0,
        )
        marp = MARP(dep)
        during = marp.submit_write("s1", "x", "during-partition")
        minority = marp.submit_write("s4", "y", "from-minority")
        dep.run(until=2_000_000)
        assert during.status == "committed"
        assert minority.status == "committed"  # finished after healing
        assert minority.completed_at > 30_000.0
        report = audit(dep)
        assert report.consistent
        assert report.final_state_equal
        # the minority's *histories* legitimately lack the dropped COMMIT
        # (the catch-up at the partition's end transfers state, not the
        # commit log), so
        # `complete` may be false while every store agrees.

    def test_mcv_also_partition_safe(self):
        dep = partitioned_deployment(
            seed=62, majority_side=["s1", "s2", "s3"],
            minority_side=["s4", "s5"],
        )
        mcv = ReplicationProtocol(dep, "mcv")
        majority_write = mcv.submit_write("s2", "x", 1)
        dep.run(until=200_000)
        assert majority_write.status == "committed"
        assert audit(dep).divergence_free


class TestAvailableCopiesPartitionVulnerability:
    def test_both_sides_accept_writes_and_diverge(self):
        """The paper's §3.1 warning, demonstrated: with no quorum
        intersection, each side of a partition independently accepts
        writes to the same object."""
        dep = partitioned_deployment(
            seed=63, majority_side=["s1", "s2"], minority_side=["s3"],
        )
        ac = ReplicationProtocol(dep, "available-copies", detection_timeout=50.0)
        left = ac.submit_write("s1", "x", "left-value")
        right = ac.submit_write("s3", "x", "right-value")
        dep.run(until=1_000_000)
        assert left.status == "committed"
        assert right.status == "committed"  # both sides "succeed"!
        report = audit(dep)
        assert not report.final_state_equal  # split brain
