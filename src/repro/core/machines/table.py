"""The mobile agent's Locking Table (LT) and Updated Agents List (UAL).

Paper §3.2: the agent carries

* **LT** — "a table of locking information obtained from all visited
  servers" (here: the freshest :class:`SharedView` known per server,
  whether learned by visiting or from server bulletin boards), and
* **UAL** — "a list of mobile agents that have already finished their
  request processing ... obtained by merging the UL maintained at each of
  the replicated servers".

The *effective top* of a server is the first agent in its known locking
list that is not in the UAL — stale entries of finished agents must not
count ("Other mobile agents will then be able to change their priorities
in their locking tables"). That is the UAL's only use, so the table
keeps only the finished ids some stored queue names:
:meth:`LockingTable.absorb` merges a visit's queues first, then the
server's Updated List (handed beside a full view, or as a delta's
``finished``) for the ids those queues name, and forgets every UAL id
whose last stored queue entry left. Forgetting can only make a finished
id look live again in a stale view adopted later, which takes tops
*away* from the agents queued behind it: a liveness cost, never a false
majority (docs/protocol.md §2).

Flat-state backing (see ``docs/architecture.md``, "Kernel internals"):
alongside the wire-format ``views`` dict the table keeps each known
locking list *packed* as a list of interned integer ids, a finished
flag per interned id in a ``bytearray`` and, per id, how many stored
queue entries name it. The effective-top scan —
the inner loop of every priority evaluation — thereby probes a byte
slab instead of hashing ``AgentId`` tuples, and the top-per-host
map and its tally are *maintained*, not recomputed: a change marks the
hosts whose top it can move, and the next query rescans only those,
each from where its last scan stopped (see
:meth:`LockingTable._settle`). The packed state is a pure index
over ``views``/``ual`` (rebuilt on unpickle, never serialised), so the
wire and replay formats are unchanged.

Ingestion costs what a visit *adds*, not what it repeats: reference
counts move by the difference between a host's old and new queue (or
by a delta's edit), forgetting walks only the slots that lost their
last queue entry, and :meth:`wire_size` reads totals kept as they move.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.errors import ProtocolError
from repro.core.machines.identity import AgentId
from repro.core.machines.intern import Interner
from repro.core.machines.wire import SharedView, SharedViewDelta

__all__ = ["LockingTable"]


class LockingTable:
    """Per-agent accumulated lock knowledge."""

    def __init__(self) -> None:
        self.views: Dict[str, SharedView] = {}
        #: the UAL: ids known finished that some stored queue names
        self.ual: Set[AgentId] = set()
        #: highest server sequence fully merged, per host. Advanced only
        #: when this table holds the complete state at that sequence
        #: (an adopted full view, or an applied delta).
        self.acked: Dict[str, int] = {}
        self._init_packed()

    def _init_packed(self) -> None:
        """Fresh flat-state index (also used on unpickle)."""
        #: AgentId <-> dense slot for every id seen in a locking list;
        #: slot order is first-seen and carries no protocol meaning
        #: (tie-breaks sort by the AgentId itself).
        self._ids = Interner()
        #: per host, the known locking list as interned slots, queue order
        self._packed: Dict[str, List[int]] = {}
        #: finished flag per slot: exactly "the slot's id is in the UAL"
        self._done = bytearray()
        #: per slot, the stored queue entries that name it
        self._refs: List[int] = []
        #: flagged slots whose last stored queue entry left;
        #: :meth:`absorb` forgets the ones still unnamed at its end
        self._loose: List[int] = []
        # :meth:`wire_size` totals, maintained as state moves: the ids
        # some stored queue names with their summed id bytes, and the
        # per-view host-name / queue-slot sums.
        self._n_ids = 0
        self._id_bytes = 0
        self._host_chars = 0
        self._queue_slots = 0
        # The tally. Invariant: ``_topped`` is exactly ``_tops``
        # inverted (its non-None values), and for every host *not* in
        # ``_dirty``, ``_tops[host]`` is the first unflagged slot of
        # ``_packed[host]``. Whatever can break the second half — a
        # new or edited queue, a flag set on a current top — puts the
        # host in ``_dirty``; :meth:`_settle` restores it per host.
        #: host -> effective-top slot | None, in first-adoption order
        self._tops: Dict[str, Optional[int]] = {}
        #: slot -> the hosts it tops; the tally is each set's size, and
        #: a finished top dirties just its own hosts
        self._topped: Dict[int, Set[str]] = {}
        #: host -> where its next rescan starts: every slot of
        #: ``_packed[host]`` before it is flagged. A flag is cleared
        #: only on a slot no stored queue names, so this holds until
        #: the queue is replaced or loses entries, which drop the
        #: host's entry (a scan from 0).
        self._scan_from: Dict[str, int] = {}
        self._dirty: set = set()

    # -- pickling ----------------------------------------------------------

    # The packed index is derived state: drop it from pickles (the live
    # backend ships the table inside AgentCoreState on every migration)
    # and rebuild on load. Slot numbering after a hop may differ from the
    # pre-hop numbering — harmless, since slots never leave the process
    # and never order anything.

    def __getstate__(self):
        return {
            "views": self.views,
            "ual": self.ual,
            "acked": self.acked,
        }

    def __setstate__(self, state) -> None:
        self.views = state["views"]
        self.ual = state["ual"]
        self.acked = state["acked"]
        self._init_packed()
        for host, view in self.views.items():
            self._host_chars += len(host)
            self._store(host, self._pack(view.view))
        self._dirty.update(self._packed)

    # -- packed-index plumbing ---------------------------------------------

    def _slot(self, agent_id: AgentId) -> int:
        """Interned slot of a queued ``agent_id``, growing the flag slab
        if new (an id already known finished starts out flagged)."""
        slot = self._ids.intern(agent_id)
        if slot == len(self._done):
            self._done.append(agent_id in self.ual)
            self._refs.append(0)
        return slot

    def _pack(self, view_ids) -> List[int]:
        """The queue as slots; only an id never queued anywhere before
        is interned one at a time."""
        packed = self._ids.slots(view_ids)
        if None in packed:
            for at, slot in enumerate(packed):
                if slot is None:
                    packed[at] = self._slot(view_ids[at])
        return packed

    def _store(self, host: str, packed: List[int]) -> None:
        """Make ``packed`` the stored queue of ``host``, moving the
        reference counts by the difference from the queue it replaces."""
        gone = self._packed.get(host, ())
        came = self._packed[host] = packed
        self._queue_slots += len(came) - len(gone)
        if gone:
            olds, news = set(gone), set(came)
            if len(olds) == len(gone) and len(news) == len(came):
                # No id queued twice (a Locking List never is): the
                # entries both queues hold keep their counts.
                gone, came = olds - news, news - olds
            self._unref(gone)
        self._ref(came)

    def _ref(self, slots: Iterable[int]) -> None:
        refs = self._refs
        value = self._ids.value
        for slot in slots:
            count = refs[slot]
            if not count:
                self._n_ids += 1
                self._id_bytes += value(slot).wire_size()
            refs[slot] = count + 1

    def _unref(self, slots: Iterable[int]) -> None:
        refs = self._refs
        done = self._done
        value = self._ids.value
        for slot in slots:
            count = refs[slot] - 1
            refs[slot] = count
            if not count:
                self._n_ids -= 1
                self._id_bytes -= value(slot).wire_size()
                if done[slot]:
                    self._loose.append(slot)

    def _finish(self, finished: Iterable[AgentId]) -> None:
        """Merge finished ids: the ones some stored queue names join the
        UAL, flagged, dirtying the hosts each of them tops; the rest
        could move no top and are not kept."""
        # frozenset() of a frozenset (a server's cached UL) is no copy
        new_ids = frozenset(finished) - self.ual
        if not new_ids:
            return
        index_of = self._ids.index_of
        for agent_id in self._ids.known(new_ids):
            slot = index_of(agent_id)
            if self._refs[slot]:
                self.ual.add(agent_id)
                self._done[slot] = 1
                hosts = self._topped.get(slot)
                if hosts:
                    # A current top finished: its hosts need a rescan.
                    self._dirty.update(hosts)

    def _forget(self) -> None:
        """Drop the UAL ids whose last stored queue entry left, clearing
        their flags: a flag that outlived its UAL entry would keep, in a
        table that never ships, what a pickle hop loses."""
        refs = self._refs
        done = self._done
        value = self._ids.value
        for slot in self._loose:
            if done[slot] and not refs[slot]:
                self.ual.discard(value(slot))
                done[slot] = 0
        self._loose.clear()

    def _settle(self) -> None:
        """Rescan the dirty hosts and move their tally entries.

        A host's scan resumes at ``_scan_from``, its last top's index:
        the slots before it were flagged then and still are.
        """
        done = self._done
        tops = self._tops
        topped = self._topped
        scan_from = self._scan_from
        packed_of = self._packed
        for host in self._dirty:
            packed = packed_of[host]
            at = scan_from.get(host, 0)
            end = len(packed)
            while at < end and done[packed[at]]:
                at += 1
            scan_from[host] = at
            top = packed[at] if at < end else None
            old = tops.get(host)
            tops[host] = top
            if top != old:
                if old is not None:
                    hosts = topped[old]
                    if len(hosts) == 1:
                        del topped[old]
                    else:
                        hosts.discard(host)
                if top is not None:
                    hosts = topped.get(top)
                    if hosts is None:
                        topped[top] = {host}
                    else:
                        hosts.add(host)
        self._dirty.clear()

    def _tops_slots(
        self, extra_done: frozenset = frozenset()
    ) -> Tuple[Dict[str, Optional[int]], Dict[int, Set[str]]]:
        """(host -> top slot | None, slot -> the hosts it tops).

        Without ``extra_done`` — the per-event decision path — these
        are the maintained maps themselves (read-only to the caller).
        The pipelining extension passes growing ``extra_done`` sets:
        only a host whose top is one of those ids is scanned again.
        """
        if self._dirty:
            self._settle()
        if not extra_done:
            return self._tops, self._topped
        index_of = self._ids.index_of
        extra = {
            slot
            for slot in map(index_of, extra_done)
            if slot is not None
        }
        done = self._done
        tops = dict(self._tops)
        topped: Dict[int, Set[str]] = {}
        for host, top in tops.items():
            if top in extra:
                top = None
                for slot in self._packed[host]:
                    if not done[slot] and slot not in extra:
                        top = slot
                        break
                tops[host] = top
            if top is not None:
                if top in topped:
                    topped[top].add(host)
                else:
                    topped[top] = {host}
        return tops, topped

    # -- ingestion --------------------------------------------------------

    def absorb(
        self,
        view,
        finished: Iterable[AgentId] = (),
        bulletin: Optional[Dict[str, SharedView]] = None,
    ) -> None:
        """One visit's merge, the LL/UL -> LT/UAL step of Algorithm 1.

        ``view`` is the visited server's full :class:`SharedView` with
        its Updated List as ``finished``, or a :class:`SharedViewDelta`
        (which carries its own ``finished``); ``bulletin`` is the
        server's board. The finished ids are merged once every queue
        the visit brings is stored, so afterwards the UAL holds only
        ids some stored queue names.
        """
        if type(view) is SharedViewDelta:
            self.apply_delta(view)
            finished = view.finished
        else:
            self.update(view)
        if bulletin:
            self.merge_bulletin(bulletin)
        self._finish(finished)
        self._forget()

    def update(self, view: SharedView) -> bool:
        """Adopt a server view if it is fresher than the stored one
        (packed at once); True if it replaced the stored one.

        A view stamped below this table's acknowledged sequence for its
        host is discarded in O(1): its queue is no fresher than what was
        merged. That turns the per-visit bulletin re-merge from
        O(hosts × agents) into O(hosts).
        """
        seq = view.seq
        host = view.host
        stored = self.views.get(host)
        if seq >= 0:
            acked = self.acked.get(host, -1)
            if seq < acked:
                return False
            if seq == acked:
                # Same sequence → identical queue; only the timestamp
                # can differ. Adopt a fresher one without re-merging
                # (the packed index and the tally stay valid — no
                # effective top can move).
                if view.is_newer_than(stored):
                    self.views[host] = view
                    return True
                return False
        if view.is_newer_than(stored):
            if stored is None:
                self._host_chars += len(host)
            self.views[host] = view
            self._store(host, self._pack(view.view))
            self._scan_from.pop(host, None)
            self._dirty.add(host)
            if seq >= 0:
                # A full snapshot at seq was adopted wholesale: this
                # table now holds the complete state at that sequence.
                self.acked[host] = seq
            return True
        return False

    def apply_delta(self, delta: SharedViewDelta) -> bool:
        """Patch one host's state in place from a server delta.

        The packed slot list is edited rather than re-packed, and the
        stored :class:`SharedView` is rebuilt to exactly what the
        server's full snapshot at ``delta.seq`` would have been (queue
        reconstruction is exact because LL appends land strictly at the
        tail), so everything downstream — bulletin deposits, freshness
        checks, pickled suitcases — is indistinguishable from having
        merged the full snapshot. Its ``finished`` ids are
        :meth:`absorb`'s to merge.

        Returns True if the queue changed.
        """
        host = delta.host
        stored = self.views.get(host)
        if stored is None or delta.base_seq != self.acked.get(host, -1):
            raise ProtocolError(
                f"delta for {host!r} built against base {delta.base_seq}, "
                f"but this table acknowledged "
                f"{self.acked.get(host, -1)} (view "
                f"{'present' if stored is not None else 'missing'})"
            )
        # Rebuild this host's queue at delta.seq. The packed list
        # mirrors the stored one position for position, so an id to
        # drop is located as an int and deleted from both.
        queue = stored.view
        changed = bool(delta.removed or delta.appended)
        if changed:
            packed = self._packed[host].copy()
            if delta.removed:
                ids = list(queue)
                for slot in self._ids.slots(delta.removed):
                    try:
                        at = packed.index(slot)
                    except ValueError:
                        continue  # not queued in the base: nothing to drop
                    del packed[at]
                    del ids[at]
                    self._scan_from.pop(host, None)
                    self._unref((slot,))
                queue = tuple(ids)
            if delta.appended:
                queue += delta.appended
                added = self._pack(delta.appended)
                packed.extend(added)
                self._ref(added)
            self._queue_slots += len(packed) - len(self._packed[host])
            self._packed[host] = packed
            self._dirty.add(host)
        self.views[host] = SharedView(
            host=host, as_of=delta.as_of, view=queue, seq=delta.seq,
        )
        self.acked[host] = delta.seq
        return changed

    def acked_seq(self, host: str) -> int:
        """The server sequence this table acknowledges for ``host``
        (``-1`` = no complete state held — request a full snapshot)."""
        return self.acked.get(host, -1)

    def merge_bulletin(self, views: Dict[str, SharedView]) -> int:
        """Ingest a server's bulletin board; returns views adopted.

        Equal to calling :meth:`update` on every entry, but the entries
        that call would discard are recognised here, before it: the very
        object already stored (a board mostly holds what earlier visitors
        carried, and this table has often merged the same snapshots), or
        a sequence below — or equal to and no fresher than — the one
        acknowledged for that host. Only a view that can change
        something pays for a merge.
        """
        adopted = 0
        acked = self.acked
        mine = self.views
        update = self.update
        for view in views.values():
            stored = mine.get(view.host)
            if view is stored:
                continue
            seq = view.seq
            if seq >= 0:
                known = acked.get(view.host, -1)
                if seq < known or (
                    seq == known and stored is not None
                    and view.as_of <= stored.as_of
                ):
                    continue
            if update(view):
                adopted += 1
        return adopted

    # -- queries -----------------------------------------------------------

    @property
    def known_hosts(self) -> List[str]:
        """Sorted hosts with a known view."""
        return sorted(self.views)

    def tops(
        self, extra_done: frozenset = frozenset()
    ) -> Dict[str, Optional[AgentId]]:
        """Effective top per known host (None = empty/unknown)."""
        tops_slots, _topped = self._tops_slots(extra_done)
        value = self._ids.value
        return {
            host: (None if slot is None else value(slot))
            for host, slot in tops_slots.items()
        }

    def alone(self, agent_id: AgentId) -> bool:
        """True when no stored queue names a live agent but ``agent_id``.

        Exact between visits: :meth:`absorb` ends with the UAL holding
        exactly the finished ids some stored queue names, so the live
        named ids are the named ids less the UAL.
        """
        live = self._n_ids - len(self.ual)
        if live != 1:
            return live == 0
        slot = self._ids.index_of(agent_id)
        return (
            slot is not None and self._refs[slot] > 0
            and not self._done[slot]
        )

    def top_counts(self, extra_done: frozenset = frozenset()) -> Counter:
        """How many known servers each agent currently tops."""
        _tops, topped = self._tops_slots(extra_done)
        value = self._ids.value
        return Counter(
            {value(slot): len(hosts) for slot, hosts in topped.items()}
        )

    def wire_size(self) -> int:
        """Approximate bytes the LT adds to the agent's migrations.

        Compact suitcase encoding: the dictionary of the ids some stored
        queue names ships once, every per-host queue is 4-byte indices
        into it, and the UAL is a dense bitset over it — instead of
        repeating the full AgentId tuple for every occurrence in every
        view. Every term is a running total, so this is O(1).
        """
        return (
            16 + (self._n_ids + 7) // 8  # container + UAL bitset
            + self._id_bytes
            # per view: host + as_of + seq, queue slots
            + (16 + 8 + 8) * len(self.views) + self._host_chars
            + 4 * self._queue_slots
        )

    def __repr__(self) -> str:
        return (
            f"<LockingTable hosts={len(self.views)} ual={len(self.ual)}>"
        )
