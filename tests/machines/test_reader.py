"""Script-replay tests of the client quorum read ([D5]).

A :class:`ReaderMachine` is one read: its query to every replica, then
the newest version among replies worth a read quorum of votes (one reply
per replica), or, when its deadline fires first, a failed read with
whatever came. MARP's read is READQ / READR at one vote a replica; the
voting baselines' is READV / RVAL weighed by their votes.
"""

from itertools import permutations

import pytest

from repro.core.machines.effects import Broadcast, CancelTimer, Done, SetTimer
from repro.core.machines.events import MsgReceived, TimerFired
from repro.core.machines.reader import ReaderMachine
from repro.core.machines.replay import replay


def readr(src, version, value, request_id=7, now=1.0):
    return MsgReceived("READR", {
        "request_id": request_id, "key": "x", "from": src,
        "version": version, "value": value,
    }, now)


QUERY = Broadcast("READQ", {"request_id": 7, "key": "x"})


def reader(majority=3, votes=None):
    """A read of ``x`` with request id 7 and a 100 ms deadline."""
    return ReaderMachine(7, QUERY, majority, 100.0, votes=votes)


def found(machine):
    """What a finished read found: (value, version, replies)."""
    return machine.value, machine.version, len(machine.replied)


def test_start_broadcasts_the_query_and_arms_the_deadline():
    assert reader().start() == [QUERY, SetTimer("read", 100.0)]


@pytest.mark.parametrize("order", list(permutations(range(3))))
def test_a_majority_with_one_stale_replica_returns_the_newest(order):
    replies = [readr("s1", 2, "new"), readr("s4", 1, "old"),
               readr("s2", 2, "new")]
    machine = reader()
    batches = replay(machine, [replies[i] for i in order])
    assert batches == [[], [], [CancelTimer("read"), Done(7, "read-done")]]
    assert found(machine) == ("new", 2, 3)


def test_a_duplicated_readr_from_one_host_counts_once():
    machine = reader()
    batches = replay(machine, [
        readr("s1", 1, "a"), readr("s1", 1, "a"), readr("s2", 1, "a"),
    ])
    assert batches == [[], [], []]
    assert machine.replied == {"s1", "s2"}
    (done,) = replay(machine, [readr("s3", 1, "a")])
    assert done[-1] == Done(7, "read-done")
    assert found(machine) == ("a", 1, 3)


def test_the_deadline_with_fewer_than_a_majority_fails():
    machine = reader()
    batches = replay(machine, [
        readr("s1", 3, "v"), readr("s2", 2, "u"), TimerFired("read", 100.0),
    ])
    ((done,),) = batches[2:]
    assert done == Done(7, "failed")
    assert found(machine) == ("v", 3, 2)


def rval(src, version, value, now=1.0):
    """A voting baseline's read reply (its votes are the reader's own)."""
    return MsgReceived("WV_RVAL", {
        "rid": 7, "from": src, "votes": 9, "version": version,
        "value": value,
    }, now)


def test_weighted_replies_reach_the_read_quorum_by_votes():
    """Gifford's read: s1 weighs 3, so s1 and one more make r = 4 of 7,
    while three light replicas do not."""
    votes = {"s1": 3, "s2": 1, "s3": 1, "s4": 1, "s5": 1}
    heavy = reader(majority=4, votes=votes)
    assert replay(heavy, [rval("s2", 1, "old"), rval("s1", 2, "new")]) == [
        [], [CancelTimer("read"), Done(7, "read-done")],
    ]
    assert found(heavy) == ("new", 2, 2) and heavy.tally == 4
    light = reader(majority=4, votes=votes)
    batches = replay(light, [
        rval("s2", 1, "a"), rval("s3", 1, "a"), rval("s2", 1, "a"),
        rval("s4", 1, "a"), TimerFired("read", 100.0),
    ])
    assert batches[:4] == [[], [], [], []]
    assert batches[4] == [Done(7, "failed")] and light.tally == 3


def test_a_replica_without_votes_replies_but_adds_none():
    machine = reader(majority=1, votes={"s1": 1})
    assert replay(machine, [rval("zz", 5, "unweighed")]) == [[]]
    assert machine.replied == {"zz"} and machine.tally == 0
    (done,) = replay(machine, [rval("s1", 1, "weighed")])
    assert done == [CancelTimer("read"), Done(7, "read-done")]
    assert found(machine) == ("unweighed", 5, 2)


def test_a_finished_read_takes_nothing_more():
    machine = reader(majority=1)
    replay(machine, [readr("s1", 1, "a")])
    assert replay(machine, [
        readr("s2", 9, "late"), TimerFired("read", 100.0),
        TimerFired("park", 100.0),
    ]) == [[], [], []]
    assert machine.replied == {"s1"} and machine.value == "a"
