"""Unit coverage for the view-exchange kernel pieces.

Three layers:

* :class:`DeltaJournal` — event replay, requeue cancellation, window
  eviction and reset-forced fallback;
* :meth:`LockingTable.apply_delta` / :meth:`LockingTable.absorb` — exact
  snapshot reconstruction, base-mismatch rejection, and the O(1)
  seq-skip in :meth:`LockingTable.update`;
* the merge edge cases the delta path must preserve: a visit's
  finished ids merge even beside a stale view, no adoption at equal
  ``as_of``, and the tally following UAL-only changes (plus
  ``known_hosts``).
"""

import pytest

from repro.errors import ProtocolError
from repro.core.machines.identity import AgentId
from repro.core.machines.delta import DeltaJournal
from repro.core.machines.table import LockingTable
from repro.core.machines.wire import SharedView, SharedViewDelta


def aid(n: int) -> AgentId:
    return AgentId("h", float(n), 0)


def view(host, as_of, ids=(), seq=-1):
    return SharedView(host=host, as_of=as_of, view=tuple(ids), seq=seq)


# -- DeltaJournal ------------------------------------------------------------


class TestDeltaJournal:
    def test_bump_is_monotone_and_delta_replays_events(self):
        j = DeltaJournal("s1")
        j.bump("enq", aid(1))
        j.bump("enq", aid(2))
        j.bump("fin", aid(3))
        d = j.delta_since(0, as_of=10.0)
        assert d is not None
        assert d.base_seq == 0 and d.seq == 3
        assert d.appended == (aid(1), aid(2))
        assert d.removed == ()
        assert d.finished == (aid(3),)

    def test_enqueue_then_dequeue_inside_window_cancels_out(self):
        j = DeltaJournal("s1")
        j.bump("enq", aid(1))
        j.bump("deq", aid(1))
        d = j.delta_since(0, as_of=1.0)
        assert d.appended == () and d.removed == ()

    def test_requeue_of_pre_window_entry_is_remove_plus_append(self):
        j = DeltaJournal("s1")
        j.bump("enq", aid(1))  # seq 1, before the receiver's base
        base = j.seq
        j.bump("deq", aid(1))
        j.bump("enq", aid(1))
        d = j.delta_since(base, as_of=2.0)
        assert d.removed == (aid(1),)
        assert d.appended == (aid(1),)

    def test_caught_up_receiver_gets_an_empty_delta(self):
        j = DeltaJournal("s1")
        j.bump("enq", aid(1))
        d = j.delta_since(j.seq, as_of=5.0)
        assert d is not None
        assert d.removed == d.appended == d.finished == ()
        assert d.base_seq == d.seq == j.seq

    def test_evicted_base_declines_delta(self):
        j = DeltaJournal("s1", capacity=2)
        for n in range(5):
            j.bump("enq", aid(n))
        assert j.delta_since(0, as_of=1.0) is None  # base fell off
        assert j.delta_since(j.seq - 2, as_of=1.0) is not None

    def test_a_cut_from_a_full_window_walks_only_its_own_events(self):
        """68 events against a full 1,024-event window: the cut reaches
        its base from the newest end and never visits the 956 older
        retained events it has to skip."""
        from collections import deque

        steps = 0

        class CountingLog(deque):
            def _counted(self, entries):
                nonlocal steps
                for entry in entries:
                    steps += 1
                    yield entry

            def __iter__(self):
                return self._counted(super().__iter__())

            def __reversed__(self):
                return self._counted(super().__reversed__())

        j = DeltaJournal("s1")
        for n in range(3 * j.capacity):
            j.bump("enq", aid(n))
        assert len(j._log) == j.capacity
        j._log = CountingLog(j._log)
        d = j.delta_since(j.seq - 68, as_of=1.0)
        assert d.appended == tuple(
            aid(n) for n in range(3 * j.capacity - 68, 3 * j.capacity)
        )
        assert steps == 68

    def test_reset_invalidates_every_base(self):
        j = DeltaJournal("s1")
        j.bump("enq", aid(1))
        base = j.seq
        j.reset()
        assert j.resets == 1
        assert j.delta_since(base, as_of=1.0) is None
        # and the journal keeps working after the reset
        j.bump("enq", aid(2))
        d = j.delta_since(j.seq - 1, as_of=2.0)
        assert d is not None and d.appended == (aid(2),)

    def test_future_base_declines_delta(self):
        j = DeltaJournal("s1")
        assert j.delta_since(7, as_of=1.0) is None


# -- apply_delta / ingest ----------------------------------------------------


class TestApplyDelta:
    def _seeded_table(self):
        table = LockingTable()
        table.update(view(
            "s1", 1.0, ids=[aid(1), aid(2), aid(3)], seq=3,
        ))
        assert table.acked_seq("s1") == 3
        return table

    def test_reconstruction_matches_full_snapshot(self):
        table = self._seeded_table()
        delta = SharedViewDelta(
            host="s1", as_of=2.0, base_seq=3, seq=7,
            removed=(aid(2),), appended=(aid(4),),
            finished=(aid(2),),
        )
        assert table.apply_delta(delta)
        # What a full snapshot at seq 7 would have said:
        assert table.views["s1"] == view(
            "s1", 2.0, ids=[aid(1), aid(3), aid(4)], seq=7,
        )
        assert table.acked_seq("s1") == 7
        # finished ids are absorb's to merge, and aid(2) left the only
        # queue naming it anyway
        assert table.ual == set()
        # effective top skips nothing new; queue order is preserved
        assert table.tops().get("s1") == aid(1)

    def test_base_mismatch_raises(self):
        table = self._seeded_table()
        stale = SharedViewDelta(
            host="s1", as_of=2.0, base_seq=1, seq=7, appended=(aid(9),)
        )
        with pytest.raises(ProtocolError):
            table.apply_delta(stale)

    def test_delta_for_unknown_host_raises(self):
        table = LockingTable()
        with pytest.raises(ProtocolError):
            table.apply_delta(
                SharedViewDelta(host="s9", as_of=1.0, base_seq=-1, seq=2)
            )

    def test_ingest_dispatches_on_type(self):
        table = self._seeded_table()
        table.absorb(view("s2", 1.0, ids=[aid(5)], seq=1))
        table.absorb(SharedViewDelta(
            host="s1", as_of=2.0, base_seq=3, seq=4, finished=(aid(1),)
        ))
        assert table.acked == {"s1": 4, "s2": 1}
        assert table.tops().get("s1") == aid(2)
        assert table.tops().get("s2") == aid(5)

    def test_seq_skip_discards_already_acked_views(self):
        table = self._seeded_table()
        table.tops()  # settles the tally
        # A replayed/bulletin copy at or below the acked sequence is
        # dropped in O(1) — no merge, no host to rescan.
        assert not table.update(view("s1", 0.5, ids=[aid(9)], seq=3))
        assert not table._dirty
        assert table.views["s1"].view == (aid(1), aid(2), aid(3))
        # An unstamped (hand-built) copy is judged by its timestamp.
        assert table.update(view("s1", 1.5, ids=[aid(9)]))
        assert table.views["s1"].view == (aid(9),)

    def test_empty_delta_refreshes_freshness_and_ack(self):
        table = self._seeded_table()
        delta = SharedViewDelta(host="s1", as_of=9.0, base_seq=3, seq=3)
        assert not table.apply_delta(delta)  # nothing changed...
        assert table.views["s1"].as_of == 9.0  # ...but the view is fresher


# -- update() edge cases the delta path must preserve ------------------------


class TestUpdateEdgeCases:
    def test_stale_view_with_new_updated_knowledge_merges_monotonically(self):
        table = LockingTable()
        assert table.update(view("s1", 5.0, ids=[aid(1), aid(2)]))
        # Older snapshot, but its visit reports aid(1) finished: the
        # UAL must grow even though the queue snapshot is not adopted.
        table.absorb(view("s1", 1.0, ids=[aid(1)]), finished=[aid(1)])
        assert table.views["s1"].as_of == 5.0
        assert aid(1) in table.ual
        assert table.tops().get("s1") == aid(2)

    def test_equal_as_of_view_is_not_adopted(self):
        table = LockingTable()
        assert table.update(view("s1", 5.0, ids=[aid(1)]))
        assert not table.update(view("s1", 5.0, ids=[aid(2)]))
        assert table.views["s1"].view == (aid(1),)

    def test_tops_cache_invalidated_by_ual_only_change(self):
        table = LockingTable()
        table.update(view("s1", 1.0, ids=[aid(1), aid(2)]))
        assert table.tops() == {"s1": aid(1)}  # settles the tally
        # Stale view, no adoption — only the UAL changes.
        table.absorb(view("s1", 0.5), finished=[aid(1)])
        assert table.tops() == {"s1": aid(2)}

    def test_known_hosts_stay_sorted_as_new_hosts_land(self):
        table = LockingTable()
        table.update(view("s2", 1.0))
        assert table.known_hosts == ["s2"]
        table.update(view("s1", 1.0))
        assert table.known_hosts == ["s1", "s2"]


# -- compact suitcase accounting ---------------------------------------------


class TestDeltaWireSize:
    def test_delta_tables_report_smaller_suitcases(self):
        table = LockingTable()
        for h in range(20):
            table.absorb(
                view(f"s{h}", 1.0, ids=[aid(n) for n in range(50)], seq=h),
                finished=[aid(n) for n in range(25)],
            )
        assert len(table.ual) == 25
        # What shipping every view structurally would cost: each
        # AgentId repeated per occurrence.
        repeated = 16 + sum(a.wire_size() for a in table.ual) + sum(
            16 + len(v.host) + 8
            + sum(a.wire_size() for a in v.view)
            for v in table.views.values()
        )
        # The shared id dictionary + slot/bitset encoding beats that 2×
        # even when every host was adopted as a full snapshot.
        assert table.wire_size() * 2 < repeated

    def test_table_wire_size_pins_the_compact_encoding(self):
        table = LockingTable()
        table.update(view("s1", 1.0, ids=[aid(1)]))
        expected = (
            16 + 1  # table container + UAL bitset (1 slot)
            + aid(1).wire_size()  # id dictionary
            + 16 + len("s1") + 8 + 8  # host + as_of + seq
            + 4 * 1  # queue entry as a slot index
        )
        assert table.wire_size() == expected
