"""Script-replay tests of the baselines' participants.

Each host of a message-passing baseline runs one participant under its
effect interpreter: a :class:`LockKeeper` (MCV, weighted voting,
Available Copies) or a :class:`CopyKeeper` (primary copy). The scripts
feed messages by hand and pin the effects, payloads included, since a
payload's size feeds the latency model; the last class runs whole
baseline writes on the :class:`KernelHarness`, each baseline attached
from its row of the protocol table.
"""

import pytest

from repro.core.machines.config import DES_TUNABLES
from repro.core.machines.effects import Send
from repro.core.machines.events import MsgReceived
from repro.core.machines.participants import CopyKeeper, LockKeeper
from repro.core.machines.protocols import ROWS, protocol_row
from repro.core.machines.replay import KernelHarness, replay
from repro.core.machines.replica import ReplicaMachine
from repro.core.machines.wire import WriteOp
from repro.errors import ProtocolError

HOSTS = ("s1", "s2", "s3")
TTL = 100.0


def replica(host="s1"):
    return ReplicaMachine(host, HOSTS, DES_TUNABLES)


def keeper(queue=False, prefix="MCV"):
    return LockKeeper(prefix, "s1", replica(), 2, TTL, queue=queue)


def lock(rid, epoch=1, now=0.0, prefix="MCV"):
    return MsgReceived(f"{prefix}_LOCK", {
        "rid": rid, "epoch": epoch, "key": "x", "reply_to": f"h{rid}",
    }, now)


def abort(rid, epoch=1, now=0.0, prefix="MCV"):
    return MsgReceived(f"{prefix}_ABORT", {"rid": rid, "epoch": epoch}, now)


def apply(rid, version, now=0.0, prefix="MCV"):
    return MsgReceived(f"{prefix}_APPLY", {
        "rid": rid, "writes": (WriteOp(rid, "x", f"v{rid}", version),),
        "origin": f"h{rid}",
    }, now)


def granted(rid, epoch=1, version=0, prefix="MCV"):
    return Send(f"h{rid}", f"{prefix}_GRANT", {
        "rid": rid, "epoch": epoch, "from": "s1", "votes": 2,
        "version": version,
    })


def nacked(rid, epoch=1):
    return Send(f"h{rid}", "MCV_NACK", {
        "rid": rid, "epoch": epoch, "from": "s1", "votes": 2,
    })


class TestLockKeeper:
    def test_a_same_holder_relock_keeps_the_newer_epoch(self):
        """Round 2's LOCK overtook round 1's: the late one is granted
        again (the coordinator ignores it), but the lock stays at
        epoch 2, so round 1's ABORT cannot free it."""
        machine = keeper()
        batches = replay(machine, [lock(7, epoch=2), lock(7, epoch=1)])
        assert batches == [[granted(7, epoch=2)], [granted(7, epoch=1)]]
        assert machine.locks == {"x": (7, 2, TTL)}
        assert replay(machine, [abort(7, epoch=1), lock(8)]) == [
            [], [nacked(8)],
        ]

    def test_a_stale_abort_spares_a_newer_epoch_grant(self):
        machine = keeper()
        batches = replay(machine, [
            lock(7, epoch=1), lock(7, epoch=2),
            abort(7, epoch=1), lock(8),
            abort(7, epoch=2), lock(8, epoch=1, now=1.0),
        ])
        assert batches == [
            [granted(7, epoch=1)], [granted(7, epoch=2)],
            [], [nacked(8)],
            [], [granted(8)],
        ]
        assert (machine.grants_given, machine.nacks_given) == (3, 1)

    def test_a_lapsed_lease_frees_the_key(self):
        """A holder that never comes back holds the key ``lock_ttl`` ms:
        at the expiry instant the key is still its, just after it is
        anyone's."""
        machine = keeper()
        batches = replay(machine, [
            lock(7), lock(8, now=TTL), lock(8, now=TTL + 0.5),
        ])
        assert batches == [[granted(7)], [nacked(8)], [granted(8)]]
        assert machine.locks == {"x": (8, 1, 2 * TTL + 0.5)}

    def test_apply_installs_the_write_and_releases(self):
        machine = keeper()
        batches = replay(machine, [
            lock(7), apply(7, version=1, now=3.0), lock(8, now=4.0),
        ])
        assert batches == [[granted(7)], [], [granted(8, version=1)]]
        (record,) = machine.replica.history
        assert (record.request_id, record.key, record.version,
                record.committed_at, record.origin) == (7, "x", 1, 3.0, "h7")
        # the participant's commits are not the MARP replica's
        assert machine.replica.commits_applied == 0

    def test_a_kind_it_does_not_take_is_an_error(self):
        with pytest.raises(ProtocolError, match="WV_LOCK"):
            keeper().on_message("WV_LOCK", {}, now=0.0)


class TestQueueingKeeper:
    """Available Copies: a busy key queues the LOCK (strict 2PL)."""

    def test_apply_hands_the_grant_on_first_in_first_out(self):
        machine = keeper(queue=True, prefix="AC")
        batches = replay(machine, [
            lock(7, prefix="AC"), lock(8, prefix="AC"), lock(9, prefix="AC"),
            lock(8, prefix="AC"),  # a duplicate waits once
            apply(7, version=1, now=2.0, prefix="AC"),
            apply(8, version=2, now=3.0, prefix="AC"),
        ])
        assert batches == [
            [granted(7, prefix="AC")], [], [], [],
            [granted(8, version=1, prefix="AC")],
            [granted(9, version=2, prefix="AC")],
        ]
        assert machine.locks == {"x": (9, 1, 3.0 + TTL)}
        assert not machine.waiters["x"]

    def test_abort_dequeues_a_waiter(self):
        machine = keeper(queue=True, prefix="AC")
        batches = replay(machine, [
            lock(7, prefix="AC"), lock(8, prefix="AC"), lock(9, prefix="AC"),
            abort(8, prefix="AC"),
            abort(7, now=1.0, prefix="AC"),
        ])
        assert batches == [
            [granted(7, prefix="AC")], [], [], [],
            [granted(9, prefix="AC")],
        ]
        assert machine.locks == {"x": (9, 1, 1.0 + TTL)}


def ship(rid, key, version, now=0.0):
    return MsgReceived("PC_APPLY", {
        "writes": (WriteOp(rid, key, f"{key}{version}", version),),
        "origin": "s3",
    }, now)


def applied(machine):
    return [(r.key, r.version, r.request_id) for r in machine.replica.history]


class TestCopyKeeper:
    def test_the_primary_orders_applies_ships_and_acknowledges(self):
        primary = CopyKeeper("PC", "s1", replica(), "s1", ("s2", "s3"))
        assert list(primary.kinds) == ["PC_WRITE"]
        (effects,) = replay(primary, [MsgReceived("PC_WRITE", {
            "rid": 7, "key": "x", "value": "a", "origin": "s3",
        }, 5.0)])
        shipped = {"writes": (WriteOp(7, "x", "a", 1),), "origin": "s3"}
        assert effects == [
            Send("s2", "PC_APPLY", shipped), Send("s3", "PC_APPLY", shipped),
            Send("s3", "PC_DONE", {"rid": 7}),
        ]
        assert effects[0].payload is effects[1].payload
        assert applied(primary) == [("x", 1, 7)]
        assert primary.writes_serialized == 1

    def test_a_backup_applies_out_of_order_versions_in_order(self):
        backup = CopyKeeper("PC", "s2", replica("s2"), "s1", ("s2", "s3"))
        assert list(backup.kinds) == ["PC_APPLY"]
        assert replay(backup, [
            ship(3, "x", 3), ship(2, "x", 2), ship(4, "y", 1),
        ]) == [[], [], []]
        assert applied(backup) == [("y", 1, 4)]
        assert backup.reorder == {"x": {3: (WriteOp(3, "x", "x3", 3), "s3"),
                                        2: (WriteOp(2, "x", "x2", 2), "s3")}}
        replay(backup, [ship(1, "x", 1)])
        assert applied(backup) == [("y", 1, 4), ("x", 1, 1), ("x", 2, 2),
                                   ("x", 3, 3)]
        assert backup.reorder == {}

    def test_a_backup_drains_its_buffer_after_a_recovery_snapshot(self):
        """x v2 waits for v1, which reaches the backup only inside a
        recovery snapshot: the next APPLY, of another key, drains it."""
        backup = CopyKeeper("PC", "s2", replica("s2"), "s1", ("s2", "s3"))
        replay(backup, [ship(2, "x", 2)])
        donor = replica("s1")
        donor.apply_write(WriteOp(1, "x", "x1", 1), "s3", 0.5)
        backup.replica.restarted(3.0)
        for peer in (donor, replica("s3")):  # the two peers it waits for
            (sync,) = peer.on_message("SYNC_REQUEST", {}, src="s2", now=3.0)
            backup.replica.on_message("SYNC_REPLY", sync.payload,
                                      src=peer.host, now=4.0)
        assert applied(backup) == [] and backup.replica.version_of("x") == 1
        replay(backup, [ship(5, "y", 1, now=5.0)])
        assert applied(backup) == [("x", 2, 2), ("y", 1, 5)]
        assert backup.reorder == {}


def one_owner_per_version(harness):
    """Every (key, version) has exactly one request; chains gapless."""
    report = harness.audit()
    assert report.divergence_free, report.problems
    assert report.gapless, report.problems
    return harness.commit_chains()


def world(name, **settings):
    """A harness over HOSTS running the row ``name``; the row."""
    harness = KernelHarness(HOSTS)
    row = protocol_row(name, harness.hosts, **settings)
    harness.attach(row)
    return harness, row


def voting_world():
    """MCV with one-vote hosts; ``voter`` starts its writes."""
    return world("mcv", lock_timeout=50.0)


def voter(harness, row, rid, home):
    harness.coordinate(home, row.write(rid, "x", f"v{rid}", home))


class TestBaselinesOnTheHarness:
    """Whole baseline writes, delivered in the harness's fixed order."""

    def test_two_concurrent_mcv_writers(self):
        harness, row = voting_world()
        voter(harness, row, 1, "s1")
        voter(harness, row, 2, "s2")
        harness.run()
        assert harness.statuses() == {1: "committed", 2: "committed"}
        chains = one_owner_per_version(harness)
        assert [value for _v, value in chains["x"]] == ["v1", "v2"]
        for host in HOSTS:
            assert harness.replicas[host].version_of("x") == 2
            assert harness.interpreters[host].claims == {}

    def test_one_available_copies_writer(self):
        harness, row = world("available-copies")
        harness.coordinate("s2", row.write(1, "x", "a", "s2"))
        harness.run()
        assert harness.statuses() == {1: "committed"}
        assert one_owner_per_version(harness) == {"x": [(1, "a")]}
        assert all(len(r.history) == 1 for r in harness.replicas.values())

    def test_one_primary_copy_run(self):
        harness, row = world("primary-copy", write_timeout=100.0)
        for rid, home in enumerate(HOSTS, start=1):
            harness.coordinate(home, row.write(rid, "x", f"v{rid}", home))
        harness.run()
        assert harness.statuses() == {1: "committed", 2: "committed",
                                      3: "committed"}
        assert len(one_owner_per_version(harness)["x"]) == 3
        assert all(len(r.history) == 3 for r in harness.replicas.values())

    def test_mcv_with_one_host_crashed(self):
        """s3 is down: its participant takes nothing, and the two live
        votes are still a majority of three."""
        harness, row = voting_world()
        harness.crash("s3")
        voter(harness, row, 1, "s1")
        voter(harness, row, 2, "s2")
        harness.run()
        assert harness.statuses() == {1: "committed", 2: "committed"}
        assert len(one_owner_per_version(harness)["x"]) == 2
        assert len(harness.replicas["s3"].history) == 0

    @pytest.mark.parametrize("name", sorted(ROWS))
    def test_one_write_per_home_commits_under_every_row(self, name):
        harness, row = world(name)
        for rid, home in enumerate(HOSTS, start=1):
            harness.coordinate(home, row.write(rid, "x", f"v{rid}", home))
        harness.run()
        assert harness.statuses() == {
            rid: "committed" for rid in range(1, len(HOSTS) + 1)
        }
        assert len(one_owner_per_version(harness)["x"]) == len(HOSTS)
        for interpreter in harness.interpreters.values():
            assert interpreter.claims == {}
