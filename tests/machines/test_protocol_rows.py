"""The protocol table: each protocol is one row of settings and machines.

A row takes its own settings only, validates them once, and says which
participant, write coordinator and quorum read (or none: read-one) the
protocol runs; MARP's participant is the replica itself and its write an
agent. The rows' runs are in ``tests/baselines`` and ``tests/core``
(DES) and ``tests/machines/test_participants.py`` (the replay harness).
"""

import pytest

from repro.core.machines.agent import AgentMachine
from repro.core.machines.config import DES_TUNABLES
from repro.core.machines.coordinators import (
    ForwardMachine,
    LadderMachine,
    VotingMachine,
)
from repro.core.machines.participants import CopyKeeper, LockKeeper
from repro.core.machines.protocols import ITINERARIES, ROWS, protocol_row
from repro.core.machines.reader import ReaderMachine
from repro.core.machines.replica import ReplicaMachine
from repro.replication.protocol import MARP
from repro.experiments.runner import RunConfig, run_once
from repro.replication.deployment import Deployment
from repro.replication.protocol import ReplicationProtocol

HOSTS = ("s1", "s2", "s3", "s4", "s5")


class TestSettings:
    @pytest.mark.parametrize("name, foreign", [
        ("primary-copy", {"lock_timeout": 100.0}),
        ("mcv", {"primary": "s1"}),
        ("weighted-voting", {"detection_timeout": 50.0}),
        ("available-copies", {"write_timeout": 100.0}),
        ("marp", {"primary": "s1"}),
        ("mcv", {"itinerary": "static-order"}),
    ])
    def test_a_row_rejects_another_rows_setting(self, name, foreign):
        with pytest.raises(TypeError, match=next(iter(foreign))):
            protocol_row(name, HOSTS, **foreign)

    def test_an_unknown_row_is_rejected(self):
        with pytest.raises(ValueError, match="quorum-of-one"):
            protocol_row("quorum-of-one", HOSTS)

    def test_the_rows_take_fourteen_settings_between_them(self):
        settable = set()
        for name in ROWS:
            settable.update(protocol_row(name, HOSTS).settings)
        assert settable == {
            "votes", "write_quorum", "read_quorum", "lock_timeout",
            "lock_ttl", "retry_backoff", "max_rounds",
            "enforce_quorum_intersection", "detection_timeout", "primary",
            "write_timeout", "itinerary", "read_strategy", "batch_size",
        }

    def test_marp_takes_four_settings(self):
        assert protocol_row("marp", HOSTS).settings == {
            "votes": None, "itinerary": "cost-sorted",
            "read_strategy": "local", "batch_size": 1,
        }
        for itinerary in ITINERARIES:
            row = protocol_row("marp", HOSTS, itinerary=itinerary)
            assert row.settings["itinerary"] == itinerary

    @pytest.mark.parametrize("bad, message", [
        ({"itinerary": "teleport"}, "itinerary strategy 'teleport'"),
        ({"read_strategy": "psychic"}, "read strategy 'psychic'"),
        ({"batch_size": 0}, "batch_size must be >= 1"),
    ])
    def test_marp_rejects_a_bad_value(self, bad, message):
        with pytest.raises(ValueError, match=message):
            protocol_row("marp", HOSTS, **bad)

    def test_a_run_rejects_another_rows_setting(self):
        """A run's ``protocol_kwargs`` are the row's settings: MCV takes
        no itinerary, so a run cannot silently ignore one."""
        with pytest.raises(TypeError, match="itinerary"):
            run_once(RunConfig(protocol="mcv", requests_per_client=1,
                               protocol_kwargs={"itinerary": "static-order"}))

    @pytest.mark.parametrize("votes", [
        {"nope": 1}, {"s1": -1, "s2": 1}, {"s1": 0, "s2": 0},
    ])
    def test_marp_and_the_voting_rows_check_votes_alike(self, votes):
        """One validator: the same bad weights, the same ValueError."""
        dep = Deployment(n_replicas=5, seed=0)
        with pytest.raises(ValueError) as marp:
            MARP(dep, votes=votes)
        with pytest.raises(ValueError) as row:
            ReplicationProtocol(dep, "weighted-voting", votes=votes)
        assert str(marp.value) == str(row.value)


class TestMachines:
    @pytest.mark.parametrize("name, keeper, writer", [
        ("mcv", LockKeeper, VotingMachine),
        ("weighted-voting", LockKeeper, VotingMachine),
        ("available-copies", LockKeeper, LadderMachine),
        ("primary-copy", CopyKeeper, ForwardMachine),
    ])
    def test_each_row_builds_its_machines(self, name, keeper, writer):
        row = protocol_row(name, HOSTS)
        replica = ReplicaMachine("s2", HOSTS, DES_TUNABLES)
        participant = row.participant("s2", replica)
        assert isinstance(participant, keeper)
        assert participant.prefix == row.prefix
        write = row.write(1, "x", "v", "s2")
        assert isinstance(write, writer)
        assert (write.prefix, write.home) == (row.prefix, "s2")

    @pytest.mark.parametrize("read_strategy", ["local", "quorum"])
    def test_the_marp_row_builds_an_agent(self, read_strategy):
        row = protocol_row("marp", HOSTS, read_strategy=read_strategy)
        assert (row.prefix, row.participant) == ("", None)
        write = row.write(1, "x", "v", "s2")
        assert isinstance(write, AgentMachine)
        state = write.state
        assert (state.home, state.batch_id, state.requests) == (
            "s2", 1, [(1, "x", "v")],
        )
        assert state.tour_remaining == set(HOSTS) - {"s2"}
        assert write.tunables is DES_TUNABLES
        if read_strategy == "local":
            assert row.reader is None
            return
        reader = row.reader(7, "x", "s3")
        assert reader.quorum == 3
        assert (reader.query.kind, reader.query.payload) == (
            "READQ", {"request_id": 7, "key": "x"},
        )

    def test_available_copies_queues_its_locks(self):
        row = protocol_row("available-copies", HOSTS)
        replica = ReplicaMachine("s1", HOSTS, DES_TUNABLES)
        assert row.participant("s1", replica).queue
        assert not protocol_row("mcv", HOSTS).participant("s1", replica).queue

    @pytest.mark.parametrize("name, settings, quorum", [
        ("mcv", {}, 3),
        ("weighted-voting", {"read_quorum": 2, "write_quorum": 4}, 2),
        ("weighted-voting", {"read_quorum": 1, "write_quorum": 5}, None),
        ("available-copies", {}, None),
        ("primary-copy", {}, None),
    ])
    def test_a_read_quorum_of_one_vote_reads_locally(
        self, name, settings, quorum
    ):
        row = protocol_row(name, HOSTS, **settings)
        if quorum is None:
            assert row.reader is None
            return
        reader = row.reader(7, "x", "s3")
        assert isinstance(reader, ReaderMachine)
        assert reader.quorum == quorum
        assert reader.query.kind == f"{row.prefix}_READV"
        assert reader.query.payload == {
            "rid": 7, "key": "x", "reply_to": "s3",
        }
