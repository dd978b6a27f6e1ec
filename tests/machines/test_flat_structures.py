"""Differential tests: the packed kernel data plane vs its reference.

The flat-state rewrite backs ``LockingList``/``UpdatedList``/
``LockingTable``/``VersionedStore`` with interned integer slots, packed
per-host arrays and a maintained top-per-host tally
(``docs/architecture.md``, "Kernel internals"). Nothing interned ever
crosses the wire, so the
whole rewrite must be *invisible*: these tests hold the fast path to
plain-Python models and to the executable specification
``decide_reference`` (``tests/machines/decide_reference.py``), and check that interning survives every
serialisation boundary (pickle, adversary-schedule JSON) without
leaking into observable behaviour.
"""

import pickle
import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.machines.identity import AgentId
from repro.core.machines import (
    DES_TUNABLES,
    Interner,
    LockEntry,
    LockingList,
    LockingTable,
    ReplicaMachine,
    SharedView,
    UpdatePayload,
    UpdatedList,
    VersionedStore,
    decide,
    rank_queue,
)
from repro.core.machines.wire import SharedViewDelta
from tests.machines.decide_reference import decide_reference


def aid(n: int) -> AgentId:
    return AgentId("h", float(n), 0)


# -- size accounting: the formulas the running totals must reproduce --------


def named_ids(table: LockingTable) -> set:
    """The ids some stored queue names."""
    return {a for view in table.views.values() for a in view.view}


class ReferenceSuitcase:
    """``LockingTable.wire_size()`` summed from scratch, kept as spec.

    The referenced-ids encoding: the dictionary holds the ids some
    stored queue names — each once, however many queues name it — the
    UAL is a bitset over it, and each view is its host, ``as_of``,
    ``seq`` and its queue as 4-byte indices. The table keeps the same
    figure as running totals.
    """

    @staticmethod
    def wire_size(table: LockingTable) -> int:
        named = named_ids(table)
        total = 16 + (len(named) + 7) // 8  # container + UAL bitset
        total += sum(agent_id.wire_size() for agent_id in named)
        for host, view in table.views.items():
            total += 16 + len(host) + 8 + 8  # host + as_of + seq
            total += 4 * len(view.view)
        return total

    @classmethod
    def check(cls, table: LockingTable) -> None:
        assert table.wire_size() == cls.wire_size(table)


def reference_tops(table: LockingTable, extra_done=frozenset()):
    """``(host -> top slot | None, slot -> the hosts it tops)``
    recomputed from the whole table: the scan over every known queue
    that every mutation used to trigger, kept as the specification of
    the maintained tally (:meth:`LockingTable._tops_slots`)."""
    index_of = table._ids.index_of
    extra = {
        slot for slot in map(index_of, extra_done) if slot is not None
    }
    done = table._done
    tops, topped = {}, {}
    for host, packed in table._packed.items():
        top = None
        for slot in packed:
            if not done[slot] and slot not in extra:
                top = slot
                break
        tops[host] = top
        if top is not None:
            topped.setdefault(top, set()).add(host)
    return tops, topped


# -- randomized table states ------------------------------------------------


@st.composite
def lock_tables(draw, max_hosts=7, max_agents=8):
    """A random cluster lock state, built through the real merge path.

    Unlike the simpler strategy in ``tests/properties``, this one feeds
    *multiple* visits per host (some stale, some fresh, each reporting
    a few finished ids) so the freshest-wins adoption, the UAL merge and
    forgetting are all exercised before the table under test is
    returned. ``visits`` lists each ``(view, finished)`` in order.
    """
    n_hosts = draw(st.integers(min_value=1, max_value=max_hosts))
    agents = draw(
        st.lists(
            st.integers(min_value=0, max_value=max_agents),
            min_size=1, max_size=max_agents, unique=True,
        )
    )
    table = LockingTable()
    visits = []
    known = draw(st.integers(min_value=0, max_value=n_hosts))
    for index in range(known):
        snapshots = draw(st.integers(min_value=1, max_value=3))
        for _ in range(snapshots):
            queue = draw(
                st.lists(st.sampled_from(agents), max_size=len(agents),
                         unique=True)
            )
            finished = draw(
                st.lists(st.sampled_from(agents), max_size=3, unique=True)
            )
            view = SharedView(
                host=f"s{index + 1}",
                as_of=float(draw(st.integers(min_value=0, max_value=4))),
                view=tuple(aid(n) for n in queue),
            )
            finished = frozenset(aid(n) for n in finished)
            visits.append((view, finished))
            table.absorb(view, finished)
    extra_done = frozenset(
        aid(n) for n in draw(
            st.lists(st.sampled_from(agents), max_size=3, unique=True)
        )
    )
    unavailable = frozenset(
        f"s{k + 1}" for k in draw(
            st.lists(st.integers(min_value=0, max_value=max_hosts - 1),
                     max_size=3, unique=True)
        )
    )
    return n_hosts, agents, table, visits, extra_done, unavailable


# -- decide == decide_reference ---------------------------------------------


@given(data=lock_tables())
@settings(max_examples=300, deadline=None)
def test_decide_matches_reference(data):
    """The packed rule cascade is the specification, exactly."""
    n_hosts, agents, table, _visits, extra_done, unavailable = data
    for agent in agents:
        fast = decide(
            table, n_hosts, aid(agent),
            extra_done=extra_done, unavailable=unavailable,
        )
        ref = decide_reference(
            table, n_hosts, aid(agent),
            extra_done=extra_done, unavailable=unavailable,
        )
        assert fast == ref


# -- the maintained tally == a whole-table recompute --------------------------

TALLY_HOSTS = ("s1", "s2", "s3")
TALLY_AGENTS = 4

#: (op, host index, agent) — few hosts and agents, so that queues
#: overlap and one id tops several hosts at once; enqueues and visits
#: drawn twice as often as the rest.
TALLY_OPS = st.lists(
    st.tuples(
        st.sampled_from([
            "enq", "enq", "visit", "visit",
            "commit", "requeue", "bulletin", "stale", "hop",
        ]),
        st.integers(min_value=0, max_value=len(TALLY_HOSTS) - 1),
        st.integers(min_value=0, max_value=TALLY_AGENTS - 1),
    ),
    min_size=1,
    max_size=40,
)


def assert_tally_is_a_recompute(table, n_hosts, extra_done=frozenset()):
    assert table._tops_slots() == reference_tops(table)
    assert table._tops_slots(extra_done) == reference_tops(table, extra_done)
    for agent in range(TALLY_AGENTS):
        assert decide(table, n_hosts, aid(agent)) == decide_reference(
            table, n_hosts, aid(agent)
        )


@given(
    ops=TALLY_OPS,
    extra=st.lists(
        st.integers(min_value=0, max_value=TALLY_AGENTS - 1), max_size=2
    ),
)
@settings(max_examples=300, deadline=None)
def test_incremental_tally_matches_a_recompute(ops, extra):
    """Whatever order ``update`` / ``apply_delta`` / ``merge_bulletin``
    and pickle hops come in, the tops and tallies the table maintains
    are those of a from-scratch scan, and ``decide`` is the reference's.

    Three real replica machines are mutated at random; one table visits
    them (delta when the journal allows, snapshot otherwise), merges
    boards of their current and of long-stale snapshots, and is shipped
    through pickle now and then — every way a host becomes dirty.
    """
    machines = [
        ReplicaMachine(host, list(TALLY_HOSTS), DES_TUNABLES)
        for host in TALLY_HOSTS
    ]
    old_snapshots = []
    table = LockingTable()
    extra_done = frozenset(aid(n) for n in extra)
    now = 0.0
    for op, at, n in ops:
        now += 1.0
        machine = machines[at]
        agent = aid(n)
        if op == "enq":
            if (
                agent not in machine.updated_list
                and agent not in machine.locking_list
            ):
                machine.request_lock(agent, n, now)
        elif op == "commit":
            # a COMMIT reaches every replica, as the broadcast does
            for each in machines:
                each.on_message(
                    "COMMIT",
                    UpdatePayload(batch_id=n, agent_id=agent, origin="s1"),
                    src="s1", now=now,
                )
        elif op == "requeue":
            if agent in machine.locking_list:
                machine.requeue_lock(agent, n, now)
        elif op == "visit":
            patch = machine.delta_view(now, table.acked_seq(machine.host))
            snapshot = machine.lock_view(now)
            old_snapshots.append(snapshot)
            if patch is None:
                table.absorb(snapshot, machine.updated_list.as_set())
            else:
                table.absorb(patch)
        elif op == "bulletin":
            board = {each.host: each.lock_view(now) for each in machines}
            old_snapshots.extend(board.values())
            del board[machine.host]
            table.merge_bulletin(board)
        elif op == "stale" and old_snapshots:
            pick = old_snapshots[n % len(old_snapshots)]
            table.merge_bulletin({pick.host: pick})
        elif op == "hop":
            table = pickle.loads(pickle.dumps(table))
        assert_tally_is_a_recompute(table, len(TALLY_HOSTS), extra_done)


#: (op, host index, agent): appends, removals and finished flags arrive
#: as deltas, "replace" as a full snapshot, "hop" is a pickle round trip.
SCAN_OPS = st.lists(
    st.tuples(
        st.sampled_from([
            "append", "append", "flag", "flag", "remove", "replace", "hop",
        ]),
        st.integers(min_value=0, max_value=len(TALLY_HOSTS) - 1),
        st.integers(min_value=0, max_value=5),
    ),
    min_size=1,
    max_size=50,
)


def assert_scan_indexes_hold(table):
    """The tops and their inverse are a from-scratch rescan, and every
    slot before a host's scan start is flagged."""
    assert table._tops_slots() == reference_tops(table)
    for host, start in table._scan_from.items():
        packed = table._packed[host]
        assert start <= len(packed)
        assert all(table._done[slot] for slot in packed[:start])


@given(ops=SCAN_OPS)
@settings(max_examples=300, deadline=None)
def test_resumed_scans_and_the_top_index_match_a_rescan(ops):
    """Flags, appends, removals, whole-queue replacements and pickle
    hops in any order: a rescan that resumes at the last top, and a
    finished top that dirties only the hosts it topped, give the tally
    a scan of every queue from its head gives."""
    queues = {host: [] for host in TALLY_HOSTS}
    seqs = dict.fromkeys(TALLY_HOSTS, 0)
    table = LockingTable()
    for host in TALLY_HOSTS:
        table.update(SharedView(
            host=host, as_of=0.0, view=(), seq=0,
        ))
    now = 0.0
    for op, at, n in ops:
        now += 1.0
        host = TALLY_HOSTS[at]
        queue = queues[host]
        agent = aid(n)
        if op == "hop":
            table = pickle.loads(pickle.dumps(table))
        elif op == "replace":
            # a fresh snapshot: the queue rotated, the agent appended
            queue[:] = queue[1:] + queue[:1]
            if agent not in queue:
                queue.append(agent)
            seqs[host] += 1
            table.update(SharedView(
                host=host, as_of=now, view=tuple(queue), seq=seqs[host],
            ))
        else:
            change = {}
            if op == "append" and agent not in queue:
                queue.append(agent)
                change["appended"] = (agent,)
            elif op == "remove" and agent in queue:
                queue.remove(agent)
                change["removed"] = (agent,)
            elif op == "flag":
                change["finished"] = (agent,)
            table.absorb(SharedViewDelta(
                host=host, as_of=now, base_seq=seqs[host],
                seq=seqs[host] + 1, **change,
            ))
            seqs[host] += 1
        assert_scan_indexes_hold(table)
        assert table.tops() == {
            each: next(
                (a for a in queues[each] if a not in table.ual), None
            )
            for each in TALLY_HOSTS
        }


def test_a_top_that_finishes_elsewhere_moves_every_host_it_topped():
    """The one way a host's top moves without its queue being touched:
    the id is reported finished by *another* server's view."""
    table = LockingTable()
    for host in ("s1", "s2"):
        table.update(SharedView(
            host=host, as_of=1.0, view=(aid(1), aid(2)),
        ))
    assert table.top_counts() == {aid(1): 2}
    table.absorb(
        SharedView(host="s3", as_of=1.0, view=(aid(2),)),
        finished={aid(1)},
    )
    assert_tally_is_a_recompute(table, 3)
    assert table.tops() == {"s1": aid(2), "s2": aid(2), "s3": aid(2)}
    assert table.top_counts() == {aid(2): 3}
    # a stale view, not adopted, beside a finished id
    table.absorb(
        SharedView(host="s1", as_of=0.5, view=()), finished={aid(2)},
    )
    assert_tally_is_a_recompute(table, 3)
    assert table.tops() == {"s1": None, "s2": None, "s3": None}
    assert table.top_counts() == {}


@st.composite
def vote_maps(draw, max_hosts=6):
    """Vote weights for some of ``s1..s6``: hosts left out and hosts
    given 0 both weigh nothing; the total is at least 1."""
    votes = draw(
        st.dictionaries(
            st.sampled_from([f"s{k + 1}" for k in range(max_hosts)]),
            st.integers(min_value=0, max_value=4),
            min_size=1,
        )
    )
    if not any(votes.values()):
        votes[draw(st.sampled_from(sorted(votes)))] = draw(
            st.integers(min_value=1, max_value=4)
        )
    return votes


@given(data=lock_tables(), votes=vote_maps())
@settings(max_examples=300, deadline=None)
def test_weighted_decide_matches_reference(data, votes):
    """Weighted voting runs on the packed cascade too: the whole
    ``Decision`` — outcome, designee, reason, vote tally (zero-vote tops
    included) and quorum hosts — is the specification's."""
    n_hosts, agents, table, _visits, extra_done, unavailable = data
    decide(table, n_hosts, aid(agents[0]))  # must leave nothing behind
    for agent in agents:
        fast = decide(
            table, n_hosts, aid(agent), votes=votes,
            extra_done=extra_done, unavailable=unavailable,
        )
        ref = decide_reference(
            table, n_hosts, aid(agent), votes=votes,
            extra_done=extra_done, unavailable=unavailable,
        )
        assert fast == ref
    # ... and a weighted evaluation leaves nothing behind for the
    # unweighted one.
    assert decide(table, n_hosts, aid(agents[0])) == decide_reference(
        table, n_hosts, aid(agents[0])
    )


def test_weights_decide_the_outcome():
    """One heavy server outvotes two light ones: skipping the weights
    (a count majority for agent 2) would get this wrong."""
    table = LockingTable()
    for host, top in (("s1", 1), ("s2", 2), ("s3", 2)):
        table.update(SharedView(
            host=host, as_of=1.0, view=(aid(top),),
        ))
    votes = {"s1": 3, "s2": 1, "s3": 1}
    assert decide(table, 3, aid(1)).winner == aid(2)
    weighted = decide(table, 3, aid(1), votes=votes)
    assert weighted == decide_reference(table, 3, aid(1), votes=votes)
    assert (weighted.outcome, weighted.winner) == ("win", aid(1))
    assert weighted.top_counts == {aid(1): 3, aid(2): 2}
    assert weighted.quorum_hosts == ("s1",)


@given(data=lock_tables())
@settings(max_examples=150, deadline=None)
def test_decide_memo_survives_further_mutation(data):
    """No earlier evaluation may outlive a top-moving change: the
    tally it settled has to follow the change."""
    n_hosts, agents, table, _visits, _extra, _unavail = data
    decide(table, n_hosts, aid(agents[0]))  # settles the tally
    newcomer = aid(99)
    table.update(SharedView(
        host="s1", as_of=99.0,
        view=(newcomer,) + (table.views.get("s1").view if
                            table.views.get("s1") else ()),
    ))
    for agent in agents:
        assert decide(table, n_hosts, aid(agent)) == decide_reference(
            table, n_hosts, aid(agent)
        )


@given(data=lock_tables())
@settings(max_examples=100, deadline=None)
def test_rank_queue_matches_reference_composition(data):
    """Pipelined grant prediction agrees with the reference cascade."""
    n_hosts, _agents, table, _visits, _extra, _unavail = data
    probe = AgentId("\x00rank-probe", float("-inf"), 0)
    order = []
    done = set()
    while True:
        decision = decide_reference(
            table, n_hosts, probe, extra_done=frozenset(done)
        )
        if decision.winner is None or decision.winner in done:
            break
        order.append(decision.winner)
        done.add(decision.winner)
    assert rank_queue(table, n_hosts) == tuple(order)


# -- incremental size accounting == the summing formulas --------------------


@given(data=lock_tables(), hop_after=st.integers(min_value=0, max_value=12))
@settings(max_examples=200, deadline=None)
def test_table_wire_size_matches_the_summing_formula(data, hop_after):
    """Every visit — stale or fresh views, ids finished before, while
    and after they are queued somewhere — and a pickle hop in the
    middle leave ``wire_size()`` at what summing over the named ids
    and the views gives."""
    _n_hosts, _agents, _table, visits, _extra, _unavail = data
    table = LockingTable()
    ReferenceSuitcase.check(table)
    for index, (view, finished) in enumerate(visits):
        if index == hop_after:
            table = pickle.loads(pickle.dumps(table))
            ReferenceSuitcase.check(table)
        table.absorb(view, finished)
        ReferenceSuitcase.check(table)


def test_finished_only_ids_are_neither_charged_nor_kept():
    """An id known only as finished costs nothing and is forgotten by
    the visit that reports it; queued later, it counts as live again."""
    table = LockingTable()
    table.absorb(
        SharedView(host="s1", as_of=1.0, view=(aid(1),)),
        finished={aid(2), aid(3)},
    )
    ReferenceSuitcase.check(table)
    assert table.ual == set()
    assert len(table._ids) == 1  # aid(1); the finished two hold no slot
    # aid(2) turns up in a queue after its finish was forgotten: a
    # stale entry that takes the top from aid(1) at s2 (liveness only).
    table.absorb(
        SharedView(host="s2", as_of=2.0, view=(aid(2), aid(1))),
        finished={aid(3)},
    )
    ReferenceSuitcase.check(table)
    assert table.tops() == {"s1": aid(1), "s2": aid(2)}
    # aid(1) finishes while queued at both hosts: kept, charged once.
    table.absorb(
        SharedView(host="s3", as_of=3.0, view=()), finished={aid(1)},
    )
    ReferenceSuitcase.check(table)
    assert table.ual == {aid(1)}
    assert table.tops() == {"s1": None, "s2": aid(2), "s3": None}


# -- forgetting: only queued ids stay, on every backend alike ----------------


def test_a_forgotten_id_is_live_again_with_or_without_a_pickle_hop():
    """A table learns Z finished while a stored queue still names Z,
    forgets it at the end of the visit that drops that queue entry,
    then adopts stale board views that queue Z ahead of A. The DES
    never pickles a table and live pickles it on every hop: both must
    see Z live, so both decide the same — Z's stale majority, which
    costs A a wait, never a grant."""
    z, a = aid(1), aid(2)

    def decide_after(hop: bool):
        table = LockingTable()
        table.absorb(
            SharedView(host="s1", as_of=1.0, view=(z, a), seq=1),
            finished={z},
        )
        assert table.ual == {z}
        table.absorb(SharedView(host="s1", as_of=2.0, view=(a,), seq=2))
        assert table.ual == set()
        if hop:
            table = pickle.loads(pickle.dumps(table))
        table.absorb(
            SharedView(host="s1", as_of=3.0, view=(a,), seq=2),
            bulletin={
                host: SharedView(host=host, as_of=0.5, view=(z, a))
                for host in ("s2", "s3")
            },
        )
        ReferenceSuitcase.check(table)
        return decide(table, 3, a)

    kept = decide_after(hop=False)
    assert kept == decide_after(hop=True)
    assert (kept.outcome, kept.winner) == ("other", z)


#: (op, host index, agent): "visit" absorbs the host's view, UL and
#: board; "stale" absorbs a visit whose board holds an old snapshot of
#: another host (one taken at an enqueue, or handed to the table).
FORGET_OPS = st.lists(
    st.tuples(
        st.sampled_from([
            "enq", "enq", "visit", "visit", "commit", "requeue", "stale",
        ]),
        st.integers(min_value=0, max_value=len(TALLY_HOSTS) - 1),
        st.integers(min_value=0, max_value=TALLY_AGENTS - 1),
    ),
    min_size=1,
    max_size=40,
)


@given(ops=FORGET_OPS)
# A finished id kept while a stale stored queue names it, then dropped
# with that queue entry: the path that clears a flag.
@example(ops=[
    ("enq", 0, 1), ("visit", 0, 0), ("commit", 0, 1), ("visit", 1, 0),
    ("visit", 0, 0),
])
# A finished id that only a board view adopted in the same visit names:
# kept, since the visit's Updated List is merged after the board.
@example(ops=[("enq", 0, 1), ("commit", 0, 1), ("stale", 1, 0)])
@settings(max_examples=300, deadline=None)
def test_absorb_keeps_only_queued_finished_ids(ops):
    """After any sequence of visits the UAL is exactly what a model
    keeps — every reported finished id, intersected with the ids the
    stored queues name after each visit — ``wire_size()`` is the
    from-scratch recount, and a table pickled after every visit (live)
    agrees with one never pickled (DES) on the UAL, the finished flags
    and every decision."""
    machines = [
        ReplicaMachine(host, list(TALLY_HOSTS), DES_TUNABLES)
        for host in TALLY_HOSTS
    ]
    old_snapshots = []
    des, live = LockingTable(), LockingTable()
    model = set()
    now = 0.0
    for op, at, n in ops:
        now += 1.0
        machine = machines[at]
        agent = aid(n)
        if op == "enq":
            if (
                agent not in machine.updated_list
                and agent not in machine.locking_list
            ):
                machine.request_lock(agent, n, now)
                old_snapshots.append(machine.lock_view(now))
            continue
        if op == "commit":
            for each in machines:
                each.on_message(
                    "COMMIT",
                    UpdatePayload(batch_id=n, agent_id=agent, origin="s1"),
                    src="s1", now=now,
                )
            continue
        if op == "requeue":
            if agent in machine.locking_list:
                machine.requeue_lock(agent, n, now)
            continue
        board = machine.bulletin
        if op == "stale" and old_snapshots:
            pick = old_snapshots[n % len(old_snapshots)]
            if pick.host != machine.host:
                board = {pick.host: pick}
        patch = machine.delta_view(now, des.acked_seq(machine.host))
        assert live.acked_seq(machine.host) == des.acked_seq(machine.host)
        if patch is None:
            view = machine.lock_view(now)
            finished = machine.updated_list.as_set()
            old_snapshots.append(view)
        else:
            view, finished = patch, frozenset(patch.finished)
        for table in (des, live):
            table.absorb(view, finished, board)
        machine.post_bulletin(des.views)
        live = pickle.loads(pickle.dumps(live))
        model = (model | finished) & named_ids(des)
        for table in (des, live):
            assert table.ual == model
            assert all(
                table._done[slot] == (value in table.ual)
                for slot, value in enumerate(table._ids.values())
            )
            ReferenceSuitcase.check(table)
        assert des.views == live.views
        for agent_n in range(TALLY_AGENTS):
            assert decide(des, len(TALLY_HOSTS), aid(agent_n)) == decide(
                live, len(TALLY_HOSTS), aid(agent_n)
            )


# -- interning is invisible -------------------------------------------------


@given(data=lock_tables())
@settings(max_examples=100, deadline=None)
def test_pickle_round_trip_rebuilds_packed_index(data):
    """Pickles carry only wire state; the packed index is rebuilt."""
    n_hosts, agents, table, _visits, extra_done, _unavail = data
    clone = pickle.loads(pickle.dumps(table))
    assert clone.views == table.views
    assert clone.ual == table.ual
    assert clone.tops(extra_done) == table.tops(extra_done)
    assert clone.top_counts() == table.top_counts()
    # The id dictionary is the ids the stored queues name, on both
    # sides of the hop.
    assert clone.wire_size() == table.wire_size()
    for agent in agents:
        assert decide(clone, n_hosts, aid(agent)) == decide(
            table, n_hosts, aid(agent)
        )


@given(data=lock_tables(), seed=st.integers(min_value=0, max_value=2**32))
@settings(max_examples=100, deadline=None)
def test_intern_order_never_changes_a_decision(data, seed):
    """Feeding the same views in any order permutes intern slots but
    must never change tops, tallies or decisions (slots are aliases,
    never order).

    Views are first deduplicated per ``(host, as_of)``: among *equal*
    timestamps adoption is first-arrival by design, so only the
    tie-free portion of the stream is order-independent. The finished
    ids arrive together, after every view (forgetting depends on when
    an id is reported, so that order is held fixed).
    """
    n_hosts, agents, _table, visits, _extra, _unavail = data
    seen = set()
    unique = []
    for view, _finished in visits:
        stamp = (view.host, view.as_of)
        if stamp not in seen:
            seen.add(stamp)
            unique.append(view)
    if not unique:
        return
    finished = frozenset().union(*(done for _view, done in visits))
    shuffled = list(unique)
    random.Random(seed).shuffle(shuffled)
    tables = []
    for order in (unique, shuffled):
        table = LockingTable()
        for view in order:
            table.update(view)
        table.absorb(order[0], finished)
        tables.append(table)
    table, other = tables
    assert other.ual == table.ual
    assert other.tops() == table.tops()
    assert other.top_counts() == table.top_counts()
    for agent in agents:
        assert decide(other, n_hosts, aid(agent)) == decide(
            table, n_hosts, aid(agent)
        )


def test_interner_round_trip_and_sort_keys():
    interner = Interner()
    ids = [AgentId("b", 2.0, 0), AgentId("a", 2.0, 1), AgentId("a", 1.0, 0)]
    slots = [interner.intern(agent_id) for agent_id in ids]
    assert slots == [0, 1, 2]  # dense, first-seen order
    assert [interner.intern(agent_id) for agent_id in ids] == slots
    for agent_id, slot in zip(ids, slots):
        assert interner.value(slot) == agent_id
        assert interner.index_of(agent_id) == slot
    # Slot order is *not* agent order: tie-breaks sort slots by the
    # interned value, an identifier being its own sort key.
    assert min(slots) == 0
    assert min(slots, key=interner.value) == 2
    assert interner.value(min(slots, key=interner.value)) == min(ids)
    assert interner.index_of(AgentId("zz", 9.0, 9)) is None
    assert len(interner) == 3


# -- flat structures vs plain models ----------------------------------------


@given(
    ops=st.lists(
        st.tuples(st.sampled_from(["append", "remove", "clear"]),
                  st.integers(min_value=0, max_value=9)),
        max_size=40,
    )
)
@settings(max_examples=150, deadline=None)
def test_locking_list_matches_model(ops):
    ll = LockingList("s1")
    model = []  # ordered agent ids
    clock = 0.0
    for op, n in ops:
        agent_id = aid(n)
        if op == "append":
            if agent_id not in model:
                clock += 1.0
                ll.append(LockEntry(agent_id, n, clock))
                model.append(agent_id)
        elif op == "remove":
            assert ll.remove(agent_id) == (agent_id in model)
            if agent_id in model:
                model.remove(agent_id)
        else:
            ll.clear()
            model.clear()
        assert ll.view() == tuple(model)
        assert len(ll) == len(model)
        assert ll.top() == (model[0] if model else None)
        for probe in range(10):
            expected = (model.index(aid(probe))
                        if aid(probe) in model else None)
            assert ll.rank(aid(probe)) == expected
            assert (aid(probe) in ll) == (aid(probe) in model)


@given(
    ops=st.lists(
        st.one_of(
            st.tuples(st.just("add"), st.integers(0, 9)),
            st.tuples(st.just("merge"),
                      st.lists(st.integers(0, 9), max_size=5)),
        ),
        max_size=30,
    )
)
@settings(max_examples=150, deadline=None)
def test_updated_list_matches_model(ops):
    ul = UpdatedList(retention=15.0)
    model = []  # insertion-ordered unique ids
    for op, arg in ops:
        if op == "add":
            agent_id = aid(arg)
            assert ul.add(agent_id) == (agent_id not in model)
            if agent_id not in model:
                model.append(agent_id)
        else:
            batch = [aid(n) for n in arg]
            expected_new = len({a for a in batch if a not in model})
            assert sum(ul.add(a) for a in batch) == expected_new
            for agent_id in batch:
                if agent_id not in model:
                    model.append(agent_id)
        assert ul.ids() == tuple(model)
        assert ul.as_set() == frozenset(model)
        assert list(ul) == model
        assert len(ul) == len(model)


@given(
    writes=st.lists(
        st.tuples(
            st.sampled_from(["x", "y", "clé-z"]),
            st.integers(min_value=1, max_value=9),
        ),
        max_size=40,
    )
)
@settings(max_examples=150, deadline=None)
def test_versioned_store_matches_model(writes):
    store = VersionedStore()
    model = {}  # key -> (value, version, time)
    applied = []
    stale = 0
    clock = 0.0
    for key, version in writes:
        clock += 1.0
        value = f"{key}-v{version}"
        expect_apply = version > model.get(key, (None, 0, 0.0))[1]
        assert store.apply(key, value, version, clock) == expect_apply
        if expect_apply:
            model[key] = (value, version, clock)
            applied.append((key, version, clock))
        else:
            stale += 1
        assert store.version_of(key) == model.get(key, (None, 0, 0.0))[1]
    assert store.keys() == sorted(model)
    assert store.applied_log == applied
    assert store.stale_rejections == stale
    assert len(store) == len(model)
    for key, (value, version, when) in model.items():
        versioned = store.read(key)
        assert (versioned.value, versioned.version, versioned.updated_at) \
            == (value, version, when)
    snapshot = store.snapshot()
    assert {
        key: (vv.value, vv.version, vv.updated_at)
        for key, vv in snapshot.items()
    } == model
    assert store.read("never-written") is None
    assert store.last_update_time("never-written") == float("-inf")


# -- the adversary JSON boundary --------------------------------------------


def test_schedule_json_round_trip_reaches_identical_outcomes():
    """A corpus schedule re-serialised through JSON drives the packed
    kernel to byte-identical outcomes (interning never leaks into the
    replay format)."""
    import pathlib

    from repro.core.machines import Schedule, check_schedule

    corpus = sorted(
        (pathlib.Path(__file__).parent / "corpus").glob("*.json")
    )
    assert corpus
    for path in corpus[:3]:
        schedule = Schedule.load(str(path))
        reloaded = Schedule.from_json(schedule.to_json())
        first = check_schedule(schedule)
        second = check_schedule(reloaded)
        assert first.statuses == second.statuses
        assert first.chains == second.chains
        assert first.events == second.events
