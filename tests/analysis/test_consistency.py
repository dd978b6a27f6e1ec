"""Unit tests for the consistency auditor (crafted good and bad states)."""

from collections import Counter
from unittest import mock

import pytest

from repro.errors import ConsistencyViolation
from repro.analysis.consistency import assert_consistent, audit
from repro.experiments.runner import RunConfig, run_once
from repro.replication.deployment import Deployment
from repro.core.machines.structures import CommitRecord, HistoryLog


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


class TestOneWalkPerHistory:
    """A full-record run_once audits every replica's history with one
    walk per audit computed, and never asks for a second copy."""

    @staticmethod
    def walks(config):
        counts = Counter()
        iterate = HistoryLog.__iter__

        def counted(log):
            counts[log.host] += 1
            return iterate(log)

        def identities(log):
            raise AssertionError("the audit copies a history")

        with mock.patch.object(HistoryLog, "__iter__", counted), \
                mock.patch.object(HistoryLog, "identities", identities):
            result = run_once(config)
        assert result.audit.consistent and result.commit_slots
        return dict(counts)

    def test_one_walk_per_host(self):
        walks = self.walks(RunConfig(seed=3, requests_per_client=5))
        assert walks == {f"s{i}": 1 for i in range(1, 6)}

    def test_an_excluded_host_is_walked_by_one_audit_only(self):
        walks = self.walks(RunConfig(
            seed=3, requests_per_client=5, audit_exclude=("s5",),
        ))
        assert walks == {"s1": 2, "s2": 2, "s3": 2, "s4": 2, "s5": 1}
