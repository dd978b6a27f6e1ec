"""Unit tests for the consistency auditor (crafted good and bad states)."""

import pytest

from repro.errors import ConsistencyViolation
from repro.analysis.consistency import assert_consistent, audit
from repro.replication.deployment import Deployment
from repro.core.machines.structures import CommitRecord


def commit(rid, key, value, version, at, origin="s1"):
    return CommitRecord(
        request_id=rid, key=key, value=value, version=version,
        committed_at=at, origin=origin,
    )


def apply_everywhere(dep, rid, key, value, version, at):
    for host in dep.hosts:
        dep.server(host).store.apply(key, value, version, at)
        dep.server(host).history.append(commit(rid, key, value, version, at))


@pytest.fixture
def dep():
    return Deployment(n_replicas=3, seed=0)


class TestCleanState:
    def test_empty_deployment_is_consistent(self, dep):
        report = audit(dep)
        assert report.consistent
        assert report.identical_histories
        assert report.total_commits == 0

    def test_uniform_commits_pass_all_checks(self, dep):
        apply_everywhere(dep, 1, "x", "a", 1, 1.0)
        apply_everywhere(dep, 2, "x", "b", 2, 2.0)
        report = audit(dep)
        assert report.consistent
        assert report.complete
        assert report.identical_histories
        assert report.total_commits == 2

    def test_assert_consistent_returns_report(self, dep):
        apply_everywhere(dep, 1, "x", "a", 1, 1.0)
        assert assert_consistent(dep).consistent


class TestViolations:
    def test_final_state_divergence_detected(self, dep):
        dep.server("s1").store.apply("x", "one", 1, 0.0)
        dep.server("s2").store.apply("x", "two", 1, 0.0)
        report = audit(dep)
        assert not report.final_state_equal
        assert not report.consistent
        assert report.problems

    def test_commit_divergence_detected(self, dep):
        # same (key, version) maps to different requests on two replicas
        dep.server("s1").history.append(commit(1, "x", "a", 1, 1.0))
        dep.server("s2").history.append(commit(2, "x", "b", 1, 1.0))
        report = audit(dep)
        assert not report.divergence_free

    def test_missing_commit_detected_as_incomplete(self, dep):
        apply_everywhere(dep, 1, "x", "a", 1, 1.0)
        # s1 alone gets a second commit
        dep.server("s1").store.apply("x", "b", 2, 2.0)
        dep.server("s1").history.append(commit(2, "x", "b", 2, 2.0))
        report = audit(dep)
        assert not report.complete
        assert not report.identical_histories
        # but nothing contradictory: still "consistent" is False only via
        # final-state inequality
        assert not report.final_state_equal

    def test_non_monotone_history_detected(self, dep):
        server = dep.server("s1")
        server.history.append(commit(1, "x", "a", 2, 1.0))
        server.history.append(commit(2, "x", "b", 1, 2.0))
        report = audit(dep)
        assert not report.monotone

    def test_assert_consistent_raises(self, dep):
        dep.server("s1").store.apply("x", "one", 1, 0.0)
        with pytest.raises(ConsistencyViolation):
            assert_consistent(dep)

    def test_order_difference_breaks_identical_histories(self, dep):
        # Same commits, different interleaving across keys.
        a = commit(1, "x", "a", 1, 1.0)
        b = commit(2, "y", "b", 1, 1.0)
        for host in dep.hosts:
            dep.server(host).store.apply("x", "a", 1, 1.0)
            dep.server(host).store.apply("y", "b", 1, 1.0)
        dep.server("s1").history.append(a)
        dep.server("s1").history.append(
            commit(2, "y", "b", 1, 2.0)
        )
        dep.server("s2").history.append(b)
        dep.server("s2").history.append(
            commit(1, "x", "a", 1, 2.0)
        )
        dep.server("s3").history.append(a)
        dep.server("s3").history.append(
            commit(2, "y", "b", 1, 2.0)
        )
        report = audit(dep)
        assert not report.identical_histories
        assert report.consistent  # per-key invariants all hold
