"""Differential property: ``apply_delta`` ≡ ``update(full snapshot)``.

The executable spec of the full-snapshot fallback. One seeded
:class:`ReplicaMachine` is driven through an arbitrary interleaving of
lock-state mutations — enqueues, commits, aborts, requeues, recovery
resets — while two agent-side :class:`LockingTable`\\ s observe it:

* the **full** table is handed a full ``lock_view`` snapshot at every
  sync point (what first contact and every fallback do);
* the **delta** table asks for a delta against its acknowledged
  sequence, exactly like ``begin_visit`` does, taking the full-snapshot
  fallback whenever the journal declines (first contact, evicted base,
  post-reset).

After every sync point both tables must agree on *everything*
decision-relevant: stored views (queue, as_of, seq), the UAL (the
finished ids the stored queues name), effective tops and host lists.
Stale re-deliveries of previously seen snapshots (the bulletin path)
are interleaved too — both tables drop them via the O(1) seq-skip, and
they must still agree.

Journal capacity is drawn small on purpose so eviction-forced fallbacks
actually happen inside the window of a few dozen operations.

The same interleavings pin the incremental size accounting: after every
merge each table's ``wire_size()`` must equal the summing formula kept
in ``tests/machines/test_flat_structures.py``, and halfway through the
delta table takes a pickle hop (the live backend's migration) and must
keep agreeing on everything above.

A second property holds ``merge_bulletin`` — which decides per entry,
before the call, whether ``update`` could change anything — to calling
``update`` on every entry of the board.
"""

import pickle

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.machines.identity import AgentId
from repro.core.machines.config import ProtocolTunables
from repro.core.machines.replica import ReplicaMachine
from repro.core.machines.table import LockingTable
from repro.core.machines.wire import SharedView, UpdatePayload, WriteOp
from tests.machines.test_flat_structures import ReferenceSuitcase

TUNABLES = ProtocolTunables()

KEYS = ("x", "y", "z")


def aid(n: int) -> AgentId:
    return AgentId("h", float(n), 0)


#: (op, arg) encodings drawn by the strategy; arg indexes agents/keys.
OPS = st.lists(
    st.one_of(
        st.tuples(st.just("enq"), st.integers(0, 14)),
        st.tuples(st.just("commit"), st.integers(0, 14)),
        st.tuples(st.just("abort"), st.integers(0, 14)),
        st.tuples(st.just("requeue"), st.integers(0, 14)),
        st.tuples(st.just("reset"), st.just(0)),
        st.tuples(st.just("sync"), st.just(0)),
        st.tuples(st.just("redeliver"), st.integers(0, 200)),
    ),
    min_size=1,
    max_size=60,
)


def payload_for(n: int, writes=()):
    return UpdatePayload(
        batch_id=n, agent_id=aid(n), origin="s1", writes=tuple(writes),
        reply_to="s1",
    )


def assert_tables_agree(full: LockingTable, delta: LockingTable) -> None:
    assert delta.views == full.views
    assert delta.ual == full.ual
    assert delta.known_hosts == full.known_hosts
    assert delta.tops() == full.tops()
    assert delta.top_counts() == full.top_counts()


@given(ops=OPS, capacity=st.sampled_from([2, 8, 1024]))
@settings(max_examples=120, deadline=None)
def test_delta_and_full_merge_sequences_agree(ops, capacity):
    machine = ReplicaMachine("s1", ["s1", "s2", "s3"], TUNABLES)
    machine.journal.capacity = capacity

    full = LockingTable()
    delta = LockingTable()
    seen_snapshots = []  # history for stale bulletin re-deliveries
    now = 0.0
    next_version = {key: 0 for key in KEYS}

    def sync(at: float) -> None:
        snapshot = machine.lock_view(at)
        finished = machine.updated_list.as_set()
        full.absorb(snapshot, finished)
        seen_snapshots.append(snapshot)
        patch = machine.delta_view(at, delta.acked_seq("s1"))
        if patch is None:
            delta.absorb(snapshot, finished)
        else:
            delta.absorb(patch)
        assert_tables_agree(full, delta)
        ReferenceSuitcase.check(full)
        ReferenceSuitcase.check(delta)

    for step, (op, arg) in enumerate(ops):
        if step == len(ops) // 2:
            delta = pickle.loads(pickle.dumps(delta))
            ReferenceSuitcase.check(delta)
        now += 1.0
        agent = aid(arg)
        if op == "enq":
            if (
                agent not in machine.updated_list
                and agent not in machine.locking_list
            ):
                machine.request_lock(agent, arg, now)
        elif op in ("commit", "abort"):
            if agent in machine.updated_list:
                continue
            writes = ()
            if op == "commit":
                key = KEYS[arg % len(KEYS)]
                next_version[key] += 1
                writes = (WriteOp(arg, key, f"v{arg}", next_version[key]),)
            machine.on_message(
                op.upper(), payload_for(arg, writes), src="s1", now=now
            )
        elif op == "requeue":
            if agent in machine.locking_list:
                machine.requeue_lock(agent, arg, now)
        elif op == "reset":
            machine.on_message(
                "SYNC_REPLY",
                {
                    "snapshot": machine.store.snapshot(),
                    "updated": tuple(machine.updated_list.ids()),
                },
                src="s2",
                now=now,
            )
        elif op == "redeliver" and seen_snapshots:
            stale = seen_snapshots[arg % len(seen_snapshots)]
            full.update(stale)
            delta.update(stale)
            assert_tables_agree(full, delta)
            ReferenceSuitcase.check(full)
            ReferenceSuitcase.check(delta)
        else:
            sync(now)

    sync(now + 1.0)


# -- merge_bulletin's pre-checks == update on every entry ---------------------

BOARD_HOSTS = ("s1", "s2", "s3")


@st.composite
def board_views(draw):
    """A pool of views per host as boards carry them: server-stamped
    snapshots whose content is a function of ``(host, seq)`` (the
    invariant the seq-skip rests on) seen at several instants, and
    unstamped hand-built ones."""
    pool = []
    for host in BOARD_HOSTS:
        for seq in draw(st.lists(st.integers(0, 4), max_size=4, unique=True)):
            queue = tuple(aid(n) for n in range(seq, seq + 2))
            for as_of in draw(
                st.lists(st.integers(0, 3), min_size=1, max_size=2,
                         unique=True)
            ):
                pool.append(SharedView(
                host=host, as_of=float(10 * seq + as_of), view=queue,
                seq=seq,
            ))
        for as_of in draw(st.lists(st.integers(0, 50), max_size=2)):
            pool.append(SharedView(
                host=host, as_of=float(as_of),
                view=(aid(draw(st.integers(0, 6))),),
            ))
    return pool


@given(
    pool=board_views(),
    boards=st.lists(
        st.lists(st.integers(0, 200), min_size=1, max_size=4),
        min_size=1, max_size=12,
    ),
)
@settings(max_examples=200, deadline=None)
def test_merge_bulletin_prechecks_equal_update_on_every_entry(pool, boards):
    """A board is merged by looking at each entry before calling
    ``update``; skipping must never change what ``update`` would have
    done. Boards also carry back the very objects the table stores —
    the common case, since they were posted from tables like it."""
    if not pool:
        return
    merged = LockingTable()
    plain = LockingTable()
    for picks in boards:
        board = {}
        for pick in picks:
            view = pool[pick % len(pool)]
            if pick % 3 == 0 and view.host in merged.views:
                view = merged.views[view.host]  # the stored object itself
            board[view.host] = view
        adopted = sum(plain.update(view) for view in board.values())
        assert merged.merge_bulletin(board) == adopted
        assert merged.views == plain.views
        assert all(
            merged.views[host] is plain.views[host] for host in plain.views
        )
        assert merged.ual == plain.ual
        assert merged.acked == plain.acked
        assert merged._dirty == plain._dirty
        assert merged.wire_size() == plain.wire_size()
        assert merged.tops() == plain.tops()
