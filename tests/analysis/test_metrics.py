"""Unit tests for the paper's metrics."""

import math

import pytest

from repro.analysis.metrics import (
    alt,
    arrival_rate,
    att,
    committed_writes,
    prk,
    response_times,
    throughput,
    visit_counts,
)
from repro.replication.requests import READ, WRITE, RequestRecord


def write(n, dispatched=0.0, locked=None, completed=None, visits=None,
          status="committed", created=0.0):
    return RequestRecord(
        request_id=n, home="s1", op=WRITE, key="x", created_at=created,
        dispatched_at=dispatched, lock_acquired_at=locked,
        completed_at=completed, visits_to_lock=visits, status=status,
    )


class TestALTandATT:
    def test_alt_mean_of_lock_times(self):
        records = [
            write(1, dispatched=0, locked=10, completed=15, visits=3),
            write(2, dispatched=5, locked=25, completed=30, visits=3),
        ]
        assert alt(records) == 15.0  # (10 + 20) / 2

    def test_att_mean_of_total_times(self):
        records = [
            write(1, dispatched=0, locked=10, completed=14, visits=3),
            write(2, dispatched=0, locked=10, completed=26, visits=3),
        ]
        assert att(records) == 20.0

    def test_empty_records_are_nan(self):
        assert math.isnan(alt([]))
        assert math.isnan(att([]))

    def test_non_committed_excluded(self):
        records = [
            write(1, locked=5, completed=10, visits=3, status="failed"),
        ]
        assert math.isnan(alt(records))

    def test_reads_excluded(self):
        record = RequestRecord(
            1, "s1", READ, "x", dispatched_at=0.0, completed_at=5.0,
            status="read-done",
        )
        assert math.isnan(att([record]))


class TestPRK:
    def test_fractions_sum_to_one(self):
        records = [write(n, locked=1, completed=2, visits=v)
                   for n, v in enumerate([3, 3, 4, 5])]
        fractions = prk(records)
        assert sum(fractions.values()) == pytest.approx(1.0)
        assert fractions[3] == 0.5

    def test_n_replicas_fills_range(self):
        records = [write(1, locked=1, completed=2, visits=3)]
        fractions = prk(records, n_replicas=5)
        assert set(fractions) == {3, 4, 5}
        assert fractions[4] == 0.0

    def test_empty_with_n(self):
        assert prk([], n_replicas=5) == {3: 0.0, 4: 0.0, 5: 0.0}

    def test_visit_counts_array(self):
        records = [write(n, locked=1, completed=2, visits=v)
                   for n, v in enumerate([5, 3])]
        assert sorted(visit_counts(records).tolist()) == [3, 5]


class TestOtherMetrics:
    def test_committed_writes_filter(self):
        records = [
            write(1, status="committed"),
            write(2, status="failed"),
            RequestRecord(3, "s1", READ, "x", status="read-done"),
        ]
        assert [r.request_id for r in committed_writes(records)] == [1]

    def test_response_times(self):
        records = [
            write(1, completed=10.0),
            write(2, completed=30.0, status="failed"),
        ]
        assert response_times(records).tolist() == [10.0]

    def test_throughput(self):
        records = [
            write(1, locked=1, completed=1000.0),
            write(2, locked=1, completed=3000.0),
            write(3, locked=1, completed=5000.0),
        ]
        # 2 intervals over 4 seconds -> 0.5 commits/s
        assert throughput(records) == pytest.approx(0.5)

    def test_throughput_degenerate(self):
        assert throughput([]) == 0.0
        assert throughput([write(1, completed=5.0)]) == 0.0

    def test_arrival_rate_counts_every_write_like_throughput(self):
        records = [
            write(1, created=1000.0, completed=1010.0),
            write(2, created=3000.0, status="failed"),
            write(3, created=5000.0, status="pending"),
            RequestRecord(request_id=4, home="s1", op=READ, key="x",
                          created_at=9000.0),
        ]
        # 2 intervals over 4 seconds, the read left out
        assert arrival_rate(records) == pytest.approx(0.5)
        assert arrival_rate(records[:1]) == 0.0
