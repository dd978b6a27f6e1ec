"""Script-replay tests of the baselines' write coordinators.

Each is a sans-IO machine the home host's interpreter runs through its
claim table: :class:`VotingMachine` (MCV, weighted voting),
:class:`LadderMachine` (Available Copies) and :class:`ForwardMachine`
(primary copy). The scripts feed replies and timers by hand and pin the
effects, payloads included, since a payload's size feeds the latency
model.
"""

from repro.core.machines.coordinators import (
    ForwardMachine,
    LadderMachine,
    VotingMachine,
)
from repro.core.machines.effects import (
    Backoff,
    Broadcast,
    CancelTimer,
    Done,
    Send,
    SetTimer,
)
from repro.core.machines.events import MsgReceived, TimerFired
from repro.core.machines.replay import replay
from repro.core.machines.wire import WriteOp

VOTES = {"s1": 3, "s2": 1, "s3": 1, "s4": 1, "s5": 1}


def voter(write_quorum=5, max_rounds=3, retry_backoff=25.0):
    """Request 7 writing x=v from s2 under VOTES (7 in all)."""
    return VotingMachine("WV", 7, "x", "v", "s2", sum(VOTES.values()),
                         write_quorum, 100.0, retry_backoff, max_rounds)


def grant(src, epoch=1, version=0, now=1.0, prefix="WV"):
    return MsgReceived(f"{prefix}_GRANT", {
        "rid": 7, "epoch": epoch, "from": src, "votes": VOTES[src],
        "version": version,
    }, now)


def nack(src, epoch=1, now=1.0):
    return MsgReceived("WV_NACK", {
        "rid": 7, "epoch": epoch, "from": src, "votes": VOTES[src],
    }, now)


def lock(epoch):
    return Broadcast("WV_LOCK", {
        "rid": 7, "epoch": epoch, "key": "x", "reply_to": "s2",
    })


def applied(version, home="s2"):
    return {
        "rid": 7, "writes": (WriteOp(7, "x", "v", version),), "origin": home,
    }


class TestVotingMachine:
    def test_start_locks_everywhere_and_arms_the_round(self):
        assert voter().start() == [lock(1), SetTimer("round", 100.0)]

    def test_a_heavy_voter_makes_the_quorum_with_one_light_one(self):
        """w = 4 of 7: s1's three votes and s4's one are a write quorum;
        the commit is one above the highest version granted."""
        machine = voter(write_quorum=4)
        machine.start()
        batches = replay(machine, [
            grant("s4", version=2), grant("s4", version=2),
            grant("s1", version=5),
        ])
        assert batches == [[], [], [
            CancelTimer("round"),
            Broadcast("WV_APPLY", applied(6)),
            Done(7, "committed"),
        ]]
        assert machine.granted_votes == 4 and machine.attempt == 1
        assert machine.writes == (WriteOp(7, "x", "v", 6),)

    def test_light_voters_alone_keep_the_round_open(self):
        machine = voter(write_quorum=5)
        machine.start()
        assert replay(machine, [
            grant(host) for host in ("s2", "s3", "s4", "s5")
        ]) == [[], [], [], []]
        assert machine.tallying and machine.granted_votes == 4

    def test_nacks_that_leave_no_quorum_abort_and_back_off(self):
        """w = 5 of 7: s2 and s3 refusing leaves 5, still enough; s1's
        three votes refused leave 2, and the round is lost at once."""
        machine = voter(write_quorum=5)
        machine.start()
        batches = replay(machine, [nack("s2"), nack("s3"), nack("s1")])
        assert batches == [[], [], [
            CancelTimer("round"),
            Broadcast("WV_ABORT", {"rid": 7, "epoch": 1}),
            Backoff(25.0),
        ]]
        assert not machine.tallying

    def test_deadline_then_back_off_opens_the_next_round(self):
        machine = voter()
        machine.start()
        batches = replay(machine, [
            grant("s1"), TimerFired("round", 100.0),
            grant("s2"),  # round 1's, after its end: nobody counts it
            TimerFired("backoff", 130.0),
        ])
        assert batches == [
            [],
            [Broadcast("WV_ABORT", {"rid": 7, "epoch": 1}), Backoff(25.0)],
            [],
            [lock(2), SetTimer("round", 100.0)],
        ]
        assert machine.granted_votes == 0 and machine.grants == {}
        # the back-off grows with the attempt
        (_, late) = replay(machine, [
            TimerFired("round", 230.0), TimerFired("backoff", 260.0),
        ])
        assert late == [lock(3), SetTimer("round", 100.0)]
        assert replay(machine, [TimerFired("round", 360.0)]) == [[
            Broadcast("WV_ABORT", {"rid": 7, "epoch": 3}), Backoff(75.0),
        ]]

    def test_max_rounds_fails_the_write_after_its_last_back_off(self):
        machine = voter(max_rounds=1)
        machine.start()
        assert replay(machine, [
            TimerFired("round", 100.0), TimerFired("backoff", 120.0),
            TimerFired("backoff", 130.0), grant("s1"),
        ]) == [
            [Broadcast("WV_ABORT", {"rid": 7, "epoch": 1}), Backoff(25.0)],
            [Done(7, "failed")],
            [],
            [],
        ]
        assert machine.attempt == 1 and machine.writes == ()

    def test_a_grant_of_an_earlier_epoch_is_ignored(self):
        """Round 2 is open; round 1's GRANTs (late or reordered) do not
        count toward it, however many votes they carry."""
        machine = voter(write_quorum=4)
        machine.start()
        replay(machine, [TimerFired("round", 100.0),
                         TimerFired("backoff", 120.0)])
        assert replay(machine, [
            grant("s1", epoch=1), grant("s4", epoch=1),
            grant("s4", epoch=2),
        ]) == [[], [], []]
        assert machine.grants == {"s4": 0}
        (done,) = replay(machine, [grant("s1", epoch=2, version=3)])
        assert done[-1] == Done(7, "committed")
        assert machine.attempt == 2 and machine.writes[0].version == 4

    def test_a_finished_write_takes_nothing_more(self):
        machine = voter(write_quorum=4)
        machine.start()
        replay(machine, [grant("s1"), grant("s2")])
        assert replay(machine, [
            grant("s3"), nack("s4"), TimerFired("round", 100.0),
            TimerFired("backoff", 100.0),
        ]) == [[], [], [], []]
        assert machine.done and machine.writes[0].version == 1


HOSTS = ("s1", "s2", "s3")


def ladder():
    """Request 7 writing x=v from s2 over HOSTS, 40 ms per rung."""
    return LadderMachine("AC", 7, "x", "v", "s2", HOSTS, 40.0)


def ac_grant(src, version=0, now=1.0):
    return MsgReceived("AC_GRANT", {
        "rid": 7, "epoch": 1, "from": src, "votes": 1, "version": version,
    }, now)


def rung(host):
    return [
        Send(host, "AC_LOCK", {
            "rid": 7, "epoch": 1, "key": "x", "reply_to": "s2",
        }),
        SetTimer("rung", 40.0),
    ]


class TestLadderMachine:
    def test_each_grant_climbs_one_rung_then_applies_to_all(self):
        machine = ladder()
        assert machine.start() == rung("s1")
        batches = replay(machine, [
            ac_grant("s1", 2), ac_grant("s2", 3), ac_grant("s3", 1),
        ])
        apply = {"rid": 7, "writes": (WriteOp(7, "x", "v", 4),),
                 "origin": "s2"}
        assert batches == [
            [CancelTimer("rung"), *rung("s2")],
            [CancelTimer("rung"), *rung("s3")],
            [CancelTimer("rung"),
             Send("s1", "AC_APPLY", apply), Send("s2", "AC_APPLY", apply),
             Send("s3", "AC_APPLY", apply), Done(7, "committed")],
        ]
        assert machine.grants == {"s1": 2, "s2": 3, "s3": 1}

    def test_a_rung_timeout_aborts_that_host_and_skips_it(self):
        """s2 does not grant within its rung: its queued LOCK is aborted,
        it is skipped, and a GRANT from it during s3's rung is not s3's.
        APPLY goes only to the hosts that granted."""
        machine = ladder()
        machine.start()
        batches = replay(machine, [
            ac_grant("s1", 1),
            TimerFired("rung", 41.0),
            ac_grant("s2", 9, now=60.0),  # given up on: not this rung's
            ac_grant("s3", 1, now=70.0),
        ])
        apply = {"rid": 7, "writes": (WriteOp(7, "x", "v", 2),),
                 "origin": "s2"}
        assert batches == [
            [CancelTimer("rung"), *rung("s2")],
            [Send("s2", "AC_ABORT", {"rid": 7, "epoch": 1}), *rung("s3")],
            [],
            [CancelTimer("rung"), Send("s1", "AC_APPLY", apply),
             Send("s3", "AC_APPLY", apply), Done(7, "committed")],
        ]
        assert machine.skipped == ["s2"]
        assert list(machine.grants) == ["s1", "s3"]

    def test_no_grant_at_all_fails_the_write(self):
        machine = ladder()
        machine.start()
        batches = replay(machine, [
            TimerFired("rung", 40.0 * n) for n in (1, 2, 3)
        ])
        assert batches[-1] == [
            Send("s3", "AC_ABORT", {"rid": 7, "epoch": 1}), Done(7, "failed"),
        ]
        assert machine.skipped == ["s1", "s2", "s3"] and machine.writes == ()
        assert replay(machine, [
            ac_grant("s3"), TimerFired("rung", 200.0),
        ]) == [[], []]


def forward():
    """Request 7 writing x=v from s2 through primary s1, 50 ms timeout."""
    return ForwardMachine("PC", 7, "x", "v", "s2", "s1", 50.0)


def pc_done(now=3.0):
    return MsgReceived("PC_DONE", {"rid": 7}, now)


class TestForwardMachine:
    def test_start_forwards_to_the_primary_and_arms_the_timeout(self):
        assert forward().start() == [
            Send("s1", "PC_WRITE", {
                "rid": 7, "key": "x", "value": "v", "origin": "s2",
            }),
            SetTimer("write", 50.0),
        ]

    def test_the_primary_done_before_the_timeout_commits(self):
        machine = forward()
        machine.start()
        assert replay(machine, [
            pc_done(), TimerFired("write", 50.0), pc_done(),
        ]) == [[CancelTimer("write"), Done(7, "committed")], [], []]

    def test_the_timeout_before_the_primary_done_fails(self):
        machine = forward()
        machine.start()
        assert replay(machine, [
            TimerFired("write", 50.0), pc_done(60.0),
        ]) == [[Done(7, "failed")], []]
