"""Unit tests for the agent's Locking Table."""

from repro.core.machines.identity import AgentId
from repro.core.machines.config import DES_TUNABLES
from repro.core.machines.replica import ReplicaMachine
from repro.core.machines.table import LockingTable
from repro.replication.server import SharedView


def aid(n: int) -> AgentId:
    return AgentId("h", float(n), 0)


def view(host: str, as_of: float, queued=()):
    return SharedView(host=host, as_of=as_of, view=tuple(queued))


class TestIngestion:
    def test_update_adopts_new_host(self):
        table = LockingTable()
        assert table.update(view("s1", 1.0, [aid(1)]))
        assert table.known_hosts == ["s1"]

    def test_update_keeps_freshest(self):
        table = LockingTable()
        table.update(view("s1", 2.0, [aid(1)]))
        assert not table.update(view("s1", 1.0, [aid(2)]))
        assert table.views["s1"].view == (aid(1),)

    def test_stale_view_still_feeds_ual(self):
        table = LockingTable()
        table.update(view("s1", 2.0, [aid(9), aid(1)]))
        table.absorb(view("s1", 1.0), finished=[aid(9)])
        assert aid(9) in table.ual
        assert table.tops() == {"s1": aid(1)}

    def test_ual_keeps_only_queued_ids(self):
        # A finished id no stored queue names cannot move a top: the
        # visit that reports it forgets it again.
        table = LockingTable()
        table.absorb(view("s1", 1.0, [aid(1), aid(2)]),
                     finished=[aid(1), aid(8), aid(9)])
        assert table.ual == {aid(1)}
        table.absorb(view("s1", 2.0, [aid(2)]))
        assert table.ual == set()
        assert table.tops() == {"s1": aid(2)}

    def test_merge_bulletin_counts_adoptions(self):
        table = LockingTable()
        table.update(view("s1", 5.0))
        adopted = table.merge_bulletin({
            "s1": view("s1", 1.0),          # stale
            "s2": view("s2", 1.0),          # new
        })
        assert adopted == 1


class TestTops:
    def test_effective_top_skips_finished_agents(self):
        table = LockingTable()
        table.update(view("s1", 1.0, [aid(1), aid(2)]))
        table.absorb(view("s2", 1.0), finished=[aid(1)])
        assert table.tops().get("s1") == aid(2)

    def test_effective_top_empty_list_is_none(self):
        table = LockingTable()
        table.update(view("s1", 1.0, []))
        assert table.tops().get("s1") is None

    def test_effective_top_unknown_host_is_none(self):
        assert LockingTable().tops().get("ghost") is None

    def test_effective_top_all_finished_is_none(self):
        table = LockingTable()
        table.absorb(view("s1", 1.0, [aid(1)]), finished=[aid(1)])
        assert table.tops().get("s1") is None

    def test_top_counts(self):
        table = LockingTable()
        table.update(view("s1", 1.0, [aid(1)]))
        table.update(view("s2", 1.0, [aid(1)]))
        table.update(view("s3", 1.0, [aid(2)]))
        counts = table.top_counts()
        assert counts[aid(1)] == 2
        assert counts[aid(2)] == 1

    def test_tops_map(self):
        table = LockingTable()
        table.update(view("s1", 1.0, [aid(1)]))
        table.update(view("s2", 1.0, []))
        assert table.tops() == {"s1": aid(1), "s2": None}


class TestVersionsAndSharing:
    def test_posted_table_skips_the_servers_own_entry(self):
        # An agent posts its table's own dict (PostBulletin carries no
        # filtered copy); the visited server drops the entry about itself.
        table = LockingTable()
        table.update(view("s1", 1.0))
        table.update(view("s2", 1.0))
        replica = ReplicaMachine("s1", ["s1", "s2"], DES_TUNABLES)
        assert replica.post_bulletin(table.views) == 1
        assert set(replica.bulletin) == {"s2"}
        assert replica.bulletin["s2"] is table.views["s2"]
        # ... and keeps the view objects, never the dict it was handed.
        table.update(view("s3", 1.0))
        assert set(replica.bulletin) == {"s2"}

    def test_wire_size_grows_with_content(self):
        table = LockingTable()
        empty = table.wire_size()
        table.update(view("s1", 1.0, [aid(n) for n in range(10)]))
        assert table.wire_size() > empty
