"""Unit tests for agent identity and its total order."""

import json
import os
import pickle
import subprocess
import sys

import repro
from repro.core.machines.identity import AgentId, AgentIdFactory, ids_wire_size
from repro.core.machines import LockingTable, SharedView, decide


class TestAgentIdOrdering:
    def test_earlier_creation_time_wins(self):
        older = AgentId("zhost", 1.0, 0)
        younger = AgentId("ahost", 2.0, 0)
        assert older < younger

    def test_tie_broken_by_host(self):
        a = AgentId("alpha", 1.0, 0)
        b = AgentId("beta", 1.0, 0)
        assert a < b

    def test_tie_broken_by_seq(self):
        first = AgentId("h", 1.0, 0)
        second = AgentId("h", 1.0, 1)
        assert first < second

    def test_total_order_is_strict(self):
        a = AgentId("h", 1.0, 0)
        b = AgentId("h", 1.0, 0)
        assert not (a < b)
        assert a == b

    def test_sortable_collections(self):
        ids = [
            AgentId("b", 2.0, 0),
            AgentId("a", 1.0, 1),
            AgentId("a", 1.0, 0),
        ]
        assert sorted(ids) == [ids[2], ids[1], ids[0]]

    def test_hashable(self):
        assert len({AgentId("h", 1.0, 0), AgentId("h", 1.0, 0)}) == 1

    def test_str_format(self):
        assert str(AgentId("s1", 12.5, 3)) == "s1@12.5#3"

    def test_wire_size_positive(self):
        assert AgentId("server-1", 0.0, 0).wire_size() > 0

    def test_ids_wire_size_is_the_sum_of_the_parts(self):
        ids = {AgentId(f"hôst-{n % 3}", float(n), n) for n in range(9)}
        assert ids_wire_size(ids) == sum(a.wire_size() for a in ids)
        assert ids_wire_size(()) == 0


# What the child interpreter of TestTupleIdentity runs: unpickle what
# the parent shipped, use every identifier as a set member and a dict
# key, and report the decisions taken over the shipped table.
_CHILD = """
import json, pickle, sys
from repro.core.machines.identity import AgentId
from repro.core.machines import decide

ids, table = pickle.loads(sys.stdin.buffer.read())
fresh = [AgentId(a.host, a.created_at, a.seq) for a in ids]
report = {
    "set_members": all(a in set(ids) for a in fresh),
    "dict_keys": [{a: n for n, a in enumerate(ids)}[a] for a in fresh],
    "hash_is_tuple_hash": all(
        hash(a) == hash((a.created_at, a.host, a.seq)) for a in ids
    ),
    "ual": sorted(str(a) for a in fresh if a in table.ual),
    "tops": {h: str(t) for h, t in table.tops().items()},
    "decide": [
        [d.outcome, str(d.winner), d.reason]
        for d in (decide(table, 3, a) for a in fresh)
    ],
    "wire_size": table.wire_size(),
}
print(json.dumps(report))
"""


class TestTupleIdentity:
    """An identifier is the tuple ``(created_at, host, seq)``: hash,
    equality and order are the tuple's own, computed in C — and a hash
    never leaves the process, since string hashes are salted per
    interpreter."""

    def test_hash_equality_and_order_come_from_the_tuple(self):
        agent_id = AgentId("s1", 2.5, 3)
        assert tuple(agent_id) == (2.5, "s1", 3)
        assert (agent_id.host, agent_id.created_at, agent_id.seq) == (
            "s1", 2.5, 3,
        )
        assert hash(agent_id) == hash((2.5, "s1", 3))
        assert agent_id == AgentId(host="s1", created_at=2.5, seq=3)
        for method in ("__hash__", "__eq__", "__lt__"):
            assert getattr(AgentId, method) is getattr(tuple, method)
        assert not hasattr(agent_id, "__dict__")
        assert repr(agent_id) == "AgentId(host='s1', created_at=2.5, seq=3)"

    def test_pickle_round_trips_at_every_protocol(self):
        agent_id = AgentId("hôst", 2.5, 3)
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(agent_id, protocol=protocol))
            assert type(back) is AgentId
            assert back == agent_id and hash(back) == hash(agent_id)
            assert (back.host, back.created_at, back.seq) == ("hôst", 2.5, 3)

    def test_ids_and_tables_survive_a_differently_salted_interpreter(self):
        ids = [AgentId(f"s{n % 3 + 1}", float(n), n) for n in range(8)]
        table = LockingTable()
        for index, host in enumerate(("s1", "s2", "s3")):
            table.absorb(
                SharedView(
                    host=host, as_of=1.0 + index,
                    view=tuple(ids[index:index + 4]),
                ),
                finished=ids[:index + 1],
            )
        expected = {
            "set_members": True,
            "dict_keys": list(range(len(ids))),
            "hash_is_tuple_hash": True,
            "ual": sorted(str(a) for a in ids if a in table.ual),
            "tops": {h: str(t) for h, t in table.tops().items()},
            "decide": [
                [d.outcome, str(d.winner), d.reason]
                for d in (decide(table, 3, a) for a in ids)
            ],
            "wire_size": table.wire_size(),
        }
        blob = pickle.dumps((ids, table), protocol=pickle.HIGHEST_PROTOCOL)
        src = os.path.dirname(os.path.dirname(repro.__file__))
        for salt in ("1", "2"):
            child = subprocess.run(
                [sys.executable, "-c", _CHILD], input=blob,
                capture_output=True, timeout=120,
                env={**os.environ, "PYTHONHASHSEED": salt, "PYTHONPATH": src},
            )
            assert child.returncode == 0, child.stderr.decode()
            assert json.loads(child.stdout) == expected


class TestAgentIdFactory:
    def test_unique_at_same_instant(self):
        factory = AgentIdFactory("s1")
        first = factory.new(5.0)
        second = factory.new(5.0)
        assert first != second
        assert first < second

    def test_distinct_instants_reset_seq(self):
        factory = AgentIdFactory("s1")
        a = factory.new(1.0)
        b = factory.new(2.0)
        assert a.seq == 0
        assert b.seq == 0
        assert a < b

    def test_host_recorded(self):
        assert AgentIdFactory("myhost").new(0.0).host == "myhost"
