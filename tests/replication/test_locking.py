"""Unit tests for LockingList and UpdatedList."""

import pytest

from repro.errors import ProtocolError
from repro.core.machines.identity import AgentId
from repro.core.machines.structures import LockEntry, LockingList, UpdatedList


def aid(n: int) -> AgentId:
    return AgentId("h", float(n), 0)


def entry(n: int, at: float = None) -> LockEntry:
    return LockEntry(agent_id=aid(n), request_id=n,
                     enqueued_at=at if at is not None else float(n))


class TestLockingList:
    def test_empty_top_is_none(self):
        assert LockingList("s1").top() is None

    def test_append_fifo_and_top(self):
        ll = LockingList("s1")
        ll.append(entry(1))
        ll.append(entry(2))
        assert ll.top() == aid(1)
        assert len(ll) == 2

    def test_rank_positions(self):
        ll = LockingList("s1")
        ll.append(entry(1))
        ll.append(entry(2))
        assert ll.rank(aid(1)) == 0
        assert ll.rank(aid(2)) == 1
        assert ll.rank(aid(99)) is None

    def test_duplicate_append_rejected(self):
        ll = LockingList("s1")
        ll.append(entry(1))
        with pytest.raises(ProtocolError):
            ll.append(entry(1, at=10.0))

    def test_time_order_enforced(self):
        ll = LockingList("s1")
        ll.append(entry(1, at=10.0))
        with pytest.raises(ProtocolError):
            ll.append(entry(2, at=5.0))

    def test_remove_promotes_next(self):
        ll = LockingList("s1")
        ll.append(entry(1))
        ll.append(entry(2))
        assert ll.remove(aid(1))
        assert ll.top() == aid(2)

    def test_remove_absent_returns_false(self):
        assert not LockingList("s1").remove(aid(1))

    def test_remove_middle_preserves_order(self):
        ll = LockingList("s1")
        for n in (1, 2, 3):
            ll.append(entry(n))
        ll.remove(aid(2))
        assert ll.view() == (aid(1), aid(3))

    def test_view_is_immutable_snapshot(self):
        ll = LockingList("s1")
        ll.append(entry(1))
        view = ll.view()
        ll.append(entry(2))
        assert view == (aid(1),)

    def test_contains(self):
        ll = LockingList("s1")
        ll.append(entry(1))
        assert aid(1) in ll
        assert aid(2) not in ll

    def test_clear(self):
        ll = LockingList("s1")
        ll.append(entry(1))
        ll.clear()
        assert len(ll) == 0

    def test_entries_copy(self):
        ll = LockingList("s1")
        ll.append(entry(1))
        entries = ll.entries()
        entries.clear()
        assert len(ll) == 1


class TestUpdatedList:
    def test_add_preserves_order(self):
        ul = UpdatedList(retention=15.0)
        ul.add(aid(2))
        ul.add(aid(1))
        assert ul.ids() == (aid(2), aid(1))

    def test_add_idempotent(self):
        ul = UpdatedList(retention=15.0)
        assert ul.add(aid(1))
        assert not ul.add(aid(1))
        assert len(ul) == 1

    def test_contains(self):
        ul = UpdatedList(retention=15.0)
        ul.add(aid(1))
        assert aid(1) in ul
        assert aid(2) not in ul

    def test_add_counts_new(self):
        # A recovering replica adds the donor's UL id by id.
        ul = UpdatedList(retention=15.0)
        ul.add(aid(1))
        assert sum(ul.add(a) for a in (aid(1), aid(2), aid(3))) == 2
        assert len(ul) == 3

    def test_as_set(self):
        ul = UpdatedList(retention=15.0)
        ul.add(aid(1))
        assert ul.as_set() == frozenset([aid(1)])

    def test_iter_in_order(self):
        ul = UpdatedList(retention=15.0)
        for n in (3, 1, 2):
            ul.add(aid(n))
        assert list(ul) == [aid(3), aid(1), aid(2)]
