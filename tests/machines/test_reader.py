"""Script-replay tests of the client quorum read ([D5]).

A :class:`ReaderMachine` is one read: READQ to every replica, then the
newest version among a majority of READRs (one per replica), or, when
its deadline fires first, a failed read with whatever came.
"""

from itertools import permutations

import pytest

from repro.core.machines import (
    Broadcast,
    CancelTimer,
    MsgReceived,
    ReadDone,
    ReaderMachine,
    SetTimer,
    TimerFired,
    replay,
)


def readr(src, version, value, request_id=7, now=1.0):
    return MsgReceived("READR", {
        "request_id": request_id, "key": "x", "from": src,
        "version": version, "value": value,
    }, now)


def reader(majority=3):
    """A read of ``x`` with request id 7 and a 100 ms deadline."""
    return ReaderMachine(7, "x", majority, 100.0)


def test_start_broadcasts_the_query_and_arms_the_deadline():
    assert reader().start() == [
        Broadcast("READQ", {"request_id": 7, "key": "x"}),
        SetTimer("read", 100.0),
    ]


@pytest.mark.parametrize("order", list(permutations(range(3))))
def test_a_majority_with_one_stale_replica_returns_the_newest(order):
    replies = [readr("s1", 2, "new"), readr("s4", 1, "old"),
               readr("s2", 2, "new")]
    batches = replay(reader(), [replies[i] for i in order])
    assert batches == [[], [], [
        CancelTimer("read"), ReadDone(7, "new", 2, 3, True),
    ]]


def test_a_duplicated_readr_from_one_host_counts_once():
    machine = reader()
    batches = replay(machine, [
        readr("s1", 1, "a"), readr("s1", 1, "a"), readr("s2", 1, "a"),
    ])
    assert batches == [[], [], []]
    assert machine.replied == {"s1", "s2"}
    (done,) = replay(machine, [readr("s3", 1, "a")])
    assert done[-1] == ReadDone(7, "a", 1, 3, True)


def test_a_readr_for_another_request_is_ignored():
    machine = reader(majority=1)
    batches = replay(machine, [
        readr("s1", 5, "theirs", request_id=8),
        readr("s2", 5, "fetch", request_id=(7, 1, "x")),  # an RMW fetch's
    ])
    assert batches == [[], []]
    assert not machine.replied and not machine.done
    (done,) = replay(machine, [readr("s3", 0, None)])
    assert done == [CancelTimer("read"), ReadDone(7, None, 0, 1, True)]


def test_the_deadline_with_fewer_than_a_majority_fails():
    batches = replay(reader(), [
        readr("s1", 3, "v"), readr("s2", 2, "u"), TimerFired("read", 100.0),
    ])
    ((done,),) = batches[2:]
    assert done == ReadDone(7, "v", 3, 2, False)
    assert not done.ok and done.replies < 3


def test_a_finished_read_takes_nothing_more():
    machine = reader(majority=1)
    replay(machine, [readr("s1", 1, "a")])
    assert replay(machine, [
        readr("s2", 9, "late"), TimerFired("read", 100.0),
        TimerFired("park", 100.0),
    ]) == [[], [], []]
    assert machine.replied == {"s1"} and machine.value == "a"
