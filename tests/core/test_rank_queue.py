"""Tests for the lock-pipelining extension (predicted grant order)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.machines.identity import AgentId
from repro.core.machines.table import LockingTable
from repro.core.machines.priority import rank_queue
from repro.replication.server import SharedView


def aid(n: int) -> AgentId:
    return AgentId("h", float(n), 0)


def table_from(queues: dict, updated=()) -> LockingTable:
    table = LockingTable()
    for host, agents in queues.items():
        table.absorb(
            SharedView(
                host=host,
                as_of=1.0,
                view=tuple(aid(n) for n in agents),
            ),
            finished=[aid(n) for n in updated],
        )
    return table


class TestRankQueue:
    def test_identical_queues_rank_in_queue_order(self):
        table = table_from({
            "s1": [1, 2, 3], "s2": [1, 2, 3], "s3": [1, 2, 3],
        })
        assert rank_queue(table, 3) == (aid(1), aid(2), aid(3))

    def test_limit(self):
        table = table_from({
            "s1": [1, 2, 3], "s2": [1, 2, 3], "s3": [1, 2, 3],
        })
        assert rank_queue(table, 3, limit=2) == (aid(1), aid(2))

    def test_empty_table_ranks_nothing(self):
        assert rank_queue(LockingTable(), 3) == ()

    def test_stops_at_incomplete_information(self):
        # only 1 of 3 hosts known: a single top is no majority and the
        # stalemate rule needs all views -> no prediction.
        table = table_from({"s1": [1, 2]})
        assert rank_queue(table, 3) == ()

    def test_skips_finished_agents(self):
        table = table_from(
            {"s1": [1, 2], "s2": [1, 2], "s3": [1, 2]}, updated=[1],
        )
        assert rank_queue(table, 3) == (aid(2),)

    def test_stalemate_resolved_by_id_in_prediction(self):
        # frozen 1/1/1 split: successive tie-breaks order by identifier
        table = table_from({"s1": [3, 1], "s2": [2, 3], "s3": [1, 2]})
        order = rank_queue(table, 3)
        assert order[0] == aid(1)  # min-ID designee first
        assert len(set(order)) == len(order)

    def test_weighted_ranking(self):
        table = table_from({"s1": [2], "s2": [1], "s3": [1]})
        # unweighted: agent 1 tops 2 of 3 -> majority
        assert rank_queue(table, 3)[0] == aid(1)
        # s1 carries the majority of votes -> agent 2 first
        weighted = rank_queue(
            table, 3, votes={"s1": 5, "s2": 1, "s3": 1},
        )
        assert weighted[0] == aid(2)

    @given(
        queue=st.lists(
            st.integers(min_value=0, max_value=10), min_size=1,
            max_size=8, unique=True,
        ),
        n_hosts=st.integers(min_value=1, max_value=5),
    )
    @settings(max_examples=60, deadline=None)
    def test_uniform_queues_always_rank_fully(self, queue, n_hosts):
        """When every server shows the same queue, the predicted order is
        exactly that queue (pure FIFO service)."""
        table = table_from({f"s{i}": queue for i in range(n_hosts)})
        assert rank_queue(table, n_hosts) == tuple(aid(n) for n in queue)

    @given(
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_prediction_is_deterministic(self, data):
        n_hosts = data.draw(st.integers(min_value=1, max_value=4))
        agents = data.draw(
            st.lists(st.integers(0, 8), min_size=1, max_size=6, unique=True)
        )
        queues = {
            f"s{i}": data.draw(
                st.lists(st.sampled_from(agents), max_size=len(agents),
                         unique=True)
            )
            for i in range(n_hosts)
        }
        first = rank_queue(table_from(queues), n_hosts)
        second = rank_queue(table_from(queues), n_hosts)
        assert first == second
        # no duplicates, no finished agents
        assert len(set(first)) == len(first)
