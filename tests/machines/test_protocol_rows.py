"""The protocol table: each baseline is one row of settings and machines.

A row takes its own settings only, validates them once, and says which
participant, write coordinator and quorum read (or none: read-one) the
baseline runs. The rows' runs are in ``tests/baselines`` (DES) and
``tests/machines/test_participants.py`` (the replay harness).
"""

import pytest

from repro.core.machines import (
    DES_TUNABLES,
    ROWS,
    CopyKeeper,
    ForwardMachine,
    LadderMachine,
    LockKeeper,
    ReaderMachine,
    ReplicaMachine,
    VotingMachine,
    protocol_row,
)
from repro.core.protocol import MARP
from repro.replication.deployment import Deployment
from repro.replication.protocol import Baseline

HOSTS = ("s1", "s2", "s3", "s4", "s5")


class TestSettings:
    @pytest.mark.parametrize("name, foreign", [
        ("primary-copy", {"lock_timeout": 100.0}),
        ("mcv", {"primary": "s1"}),
        ("weighted-voting", {"detection_timeout": 50.0}),
        ("available-copies", {"write_timeout": 100.0}),
    ])
    def test_a_row_rejects_another_rows_setting(self, name, foreign):
        with pytest.raises(TypeError, match=next(iter(foreign))):
            protocol_row(name, HOSTS, **foreign)

    def test_an_unknown_row_is_rejected(self):
        with pytest.raises(ValueError, match="quorum-of-one"):
            protocol_row("quorum-of-one", HOSTS)

    def test_the_rows_take_eleven_settings_between_them(self):
        settable = set()
        for name in ROWS:
            settable.update(protocol_row(name, HOSTS).settings)
        assert settable == {
            "votes", "write_quorum", "read_quorum", "lock_timeout",
            "lock_ttl", "retry_backoff", "max_rounds",
            "enforce_quorum_intersection", "detection_timeout", "primary",
            "write_timeout",
        }

    @pytest.mark.parametrize("votes", [
        {"nope": 1}, {"s1": -1, "s2": 1}, {"s1": 0, "s2": 0},
    ])
    def test_marp_and_the_voting_rows_check_votes_alike(self, votes):
        """One validator: the same bad weights, the same ValueError."""
        dep = Deployment(n_replicas=5, seed=0)
        with pytest.raises(ValueError) as marp:
            MARP(dep, votes=votes)
        with pytest.raises(ValueError) as row:
            Baseline(dep, "weighted-voting", votes=votes)
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
