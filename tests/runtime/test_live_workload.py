"""Tests for the live workload driver."""

import pytest

from repro.errors import WorkloadError
from repro.analysis.metrics import alt, att, committed_writes
from repro.runtime import LiveCluster
from repro.runtime.workload import LiveWorkloadDriver, records_from_dicts


class TestRecordsFromDicts:
    def test_conversion(self):
        raw = [{
            "request_id": 3, "home": "h2", "status": "committed",
            "dispatched_at": 10.0, "lock_acquired_at": 20.0,
            "completed_at": 25.0, "visits_to_lock": 2,
            "agent_id": "h2@10#0",
        }]
        records = records_from_dicts(raw)
        assert records[0].lock_time == 10.0
        assert records[0].total_time == 15.0
        assert records[0].is_write

    def test_metrics_apply(self):
        raw = [
            {
                "request_id": n, "home": "h1", "status": "committed",
                "dispatched_at": 0.0, "lock_acquired_at": 5.0 * n,
                "completed_at": 6.0 * n, "visits_to_lock": 2,
                "agent_id": None,
            }
            for n in (1, 2)
        ]
        records = records_from_dicts(raw)
        assert alt(records) == 7.5
        assert att(records) == 9.0


class TestLiveWorkloadDriver:
    def test_validation(self):
        cluster = LiveCluster(n_replicas=2)
        with pytest.raises(WorkloadError):
            LiveWorkloadDriver(cluster, mean_interarrival_ms=0)
        with pytest.raises(WorkloadError):
            LiveWorkloadDriver(cluster, writes_per_host=0)

    def test_drives_full_workload(self):
        with LiveCluster(n_replicas=3, backend="thread", seed=11) as cluster:
            driver = LiveWorkloadDriver(
                cluster, mean_interarrival_ms=10.0, writes_per_host=3,
                seed=11,
            )
            records = driver.run(timeout=60.0)
        assert len(records) == driver.total_writes == 9
        assert len(committed_writes(records)) == 9
        report = cluster.audit()
        assert report.consistent
        assert report.total_commits == 9
        for record in committed_writes(records):
            assert record.visits_to_lock >= 2  # ceil((3+1)/2)
