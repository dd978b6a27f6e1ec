"""Unit tests for HistoryLog and RequestRecord."""

import pytest

from repro.core.machines.structures import CommitRecord, HistoryLog
from repro.replication.requests import (
    READ,
    WRITE,
    RequestRecord,
    new_request_id,
)


def commit(n: int, key: str = "x", at: float = None) -> CommitRecord:
    return CommitRecord(
        request_id=n, key=key, value=n, version=n,
        committed_at=at if at is not None else float(n), origin="s1",
    )


class TestHistoryLog:
    def test_append_and_iterate(self):
        log = HistoryLog("s1")
        log.append(commit(1))
        log.append(commit(2))
        assert [r.version for r in log] == [1, 2]
        assert len(log) == 2

    def test_time_order_enforced(self):
        log = HistoryLog("s1")
        log.append(commit(1, at=10.0))
        with pytest.raises(ValueError):
            log.append(commit(2, at=5.0))

    def test_identities(self):
        log = HistoryLog("s1")
        log.append(commit(1))
        assert log.identities() == [(1, "x", 1)]

    def test_versions_for_key(self):
        log = HistoryLog("s1")
        log.append(commit(1, key="x"))
        log.append(commit(2, key="y"))
        log.append(commit(3, key="x"))
        assert log.versions_for("x") == [1, 3]

    def test_last(self):
        log = HistoryLog("s1")
        assert log.last() is None
        log.append(commit(1))
        assert log.last().version == 1

    def test_records_copy(self):
        log = HistoryLog("s1")
        log.append(commit(1))
        records = log.records()
        records.clear()
        assert len(log) == 1

    def test_commit_identity(self):
        assert commit(5).identity() == (5, "x", 5)


class TestRequestRecord:
    def test_new_request_ids_increase(self):
        assert new_request_id() < new_request_id()

    def test_lock_time(self):
        record = RequestRecord(1, "s1", WRITE, "x", dispatched_at=10.0,
                               lock_acquired_at=25.0)
        assert record.lock_time == 15.0

    def test_lock_time_none_until_acquired(self):
        record = RequestRecord(1, "s1", WRITE, "x", dispatched_at=10.0)
        assert record.lock_time is None

    def test_total_time(self):
        record = RequestRecord(1, "s1", WRITE, "x", dispatched_at=10.0,
                               completed_at=40.0)
        assert record.total_time == 30.0

    def test_response_time_from_creation(self):
        record = RequestRecord(1, "s1", WRITE, "x", created_at=5.0,
                               completed_at=40.0)
        assert record.response_time == 35.0

    def test_is_write(self):
        assert RequestRecord(1, "s1", WRITE, "x").is_write
        assert not RequestRecord(1, "s1", READ, "x").is_write

    def test_default_status_pending(self):
        assert RequestRecord(1, "s1", WRITE, "x").status == "pending"
