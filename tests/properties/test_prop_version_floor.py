"""Differential property: the version floor ≡ folding every view.

A :class:`LockingTable` folds a view's version vector into its floor
only when no stored view will cover those cells later — an unstamped
view, a stamped view merged but not adopted, a stored view replaced by
one that does not succeed it — and reads ``max_versions``,
``version_ceiling`` and the ``wire_size()`` key count from the floor
plus the stored vectors. That is exact because one server's vector only
grows with its journal ``seq``.

The reference is the table as it was before: every merged view and
delta folded cell by cell into one monotone dict. Three seeded
:class:`ReplicaMachine`\\ s commit writes while a table visits them
(delta or full snapshot, as ``begin_visit`` decides), is handed full
snapshots at later instants (same sequence, fresher time), stale
re-deliveries, unstamped hand-built views and whole bulletin boards,
and takes pickle hops. After every step the table must agree with the
reference on all three readings.
"""

import pickle

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.agents.identity import AgentId
from repro.core.machines.config import ProtocolTunables
from repro.core.machines.replica import ReplicaMachine
from repro.core.machines.table import LockingTable
from repro.core.machines.wire import SharedView, UpdatePayload, WriteOp
from tests.machines.test_flat_structures import ReferenceSuitcase

HOSTS = ("s1", "s2", "s3")
KEYS = ("x", "y", "z", "w")


class EagerTable(LockingTable):
    """The table plus ``eager``: every cell of every view ``update``
    merges (the O(1) seq-skip still skips) and of every delta, folded."""

    def __init__(self) -> None:
        super().__init__()
        self.eager = {}

    def _fold_eagerly(self, versions) -> None:
        for key, version in (versions or {}).items():
            if version > self.eager.get(key, 0):
                self.eager[key] = version

    def update(self, view) -> bool:
        if view.seq < 0 or view.seq > self.acked.get(view.host, -1):
            self._fold_eagerly(view.versions)
        return super().update(view)

    def apply_delta(self, delta) -> bool:
        self._fold_eagerly(delta.versions)
        return super().apply_delta(delta)

    def __getstate__(self):
        return {**super().__getstate__(), "eager": self.eager}

    def __setstate__(self, state) -> None:
        super().__setstate__(state)
        self.eager = state["eager"]


STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("commit"), st.integers(0, 2), st.integers(0, 3)),
        st.tuples(st.just("visit"), st.integers(0, 2), st.just(0)),
        st.tuples(st.just("full"), st.integers(0, 2), st.just(0)),
        st.tuples(st.just("stale"), st.integers(0, 200), st.just(0)),
        st.tuples(
            st.just("unstamped"), st.integers(0, 2),
            st.dictionaries(st.sampled_from(KEYS), st.integers(1, 9),
                            max_size=3),
        ),
        st.tuples(
            st.just("board"), st.integers(0, 200),
            st.lists(st.integers(0, 200), min_size=1, max_size=4),
        ),
        st.tuples(st.just("pickle"), st.just(0), st.just(0)),
    ),
    min_size=1,
    max_size=50,
)


def _check(table: LockingTable, ref: EagerTable, sizes) -> None:
    assert table.max_versions == ref.eager
    assert ref.max_versions == ref.eager
    for key in KEYS:
        assert table.version_ceiling(key) == ref.eager.get(key, 0)
    # ReferenceSuitcase counts 16 B per key of ``max_versions``, which
    # was just held equal to the eager fold.
    for one, size in zip((table, ref), sizes):
        size.check(one)
    assert table.wire_size() == ref.wire_size()


@given(
    steps=STEPS,
    capacity=st.sampled_from([2, 8, 1024]),
    unstamped_at=st.lists(st.integers(0, 60), min_size=1, max_size=4),
)
@settings(max_examples=200, deadline=None)
def test_floor_and_stored_views_equal_the_eager_fold(
    steps, capacity, unstamped_at
):
    machines = {
        host: ReplicaMachine(host, list(HOSTS), ProtocolTunables())
        for host in HOSTS
    }
    for machine in machines.values():
        machine.journal.capacity = capacity
    table, ref = LockingTable(), EagerTable()
    sizes = (ReferenceSuitcase(), ReferenceSuitcase())
    seen = []  # every full view handed out, for re-deliveries and boards
    next_version = {key: 0 for key in KEYS}
    now = 0.0

    def both(call):
        assert call(table) == call(ref)

    for step, (op, arg, extra) in enumerate(steps):
        now += 1.0
        if op == "commit":
            key = KEYS[extra]
            next_version[key] += 1
            writer = AgentId("h", now, step)
            machines[HOSTS[arg]].on_message(
                "COMMIT",
                UpdatePayload(
                    batch_id=step, agent_id=writer, origin=HOSTS[arg],
                    writes=(WriteOp(step, key, step, next_version[key]),),
                ),
                src=HOSTS[arg], now=now,
            )
            continue
        if op == "visit":
            machine = machines[HOSTS[arg]]
            # both tables acknowledge the same sequence
            patch = machine.delta_view(now, table.acked_seq(machine.host))
            view = patch if patch is not None else machine.lock_view(now)
            if patch is None:
                seen.append(view)
            both(lambda t: t.ingest(view))
        elif op == "full":
            view = machines[HOSTS[arg]].lock_view(now)
            seen.append(view)
            both(lambda t: t.update(view))
        elif op == "stale" and seen:
            view = seen[arg % len(seen)]
            both(lambda t: t.update(view))
        elif op == "unstamped":
            view = SharedView(
                host=HOSTS[arg],
                as_of=float(unstamped_at[step % len(unstamped_at)]),
                view=(), updated=frozenset(), versions=dict(extra),
            )
            seen.append(view)
            both(lambda t: t.update(view))
        elif op == "board" and seen:
            board = {}
            for pick in [arg, *extra]:
                view = seen[pick % len(seen)]
                board[view.host] = view
            both(lambda t: t.merge_bulletin(board))
        elif op == "pickle":
            table = pickle.loads(pickle.dumps(table))
            ref = pickle.loads(pickle.dumps(ref))
            for one, size in zip((table, ref), sizes):
                size.after_pickle_hop(one)
        _check(table, ref, sizes)
