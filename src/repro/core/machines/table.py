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
in their locking tables").

Flat-state backing (see ``docs/architecture.md``, "Kernel internals"):
alongside the wire-format ``views`` dict the table keeps each known
locking list *packed* as a list of interned integer ids and, for the
ids that appear in some locking list, a finished flag in a
``bytearray`` indexed by interned id. The effective-top scan —
the inner loop of every priority evaluation — thereby probes a byte
slab instead of hashing ``AgentId`` tuples, and the top-per-host
map and its tally are *maintained*, not recomputed: a change marks the
hosts whose top it can move, and the next query rescans only those,
each from where its last scan stopped (see
:meth:`LockingTable._settle`). The packed state is a pure index
over ``views``/``ual`` (rebuilt on unpickle, never serialised), so the
wire and replay formats are unchanged.

Ingestion costs what a view *adds*, not what it repeats: the finished
ids of a view are merged as one set difference against the UAL (a
plain set), an id that is only ever known as finished (the common
case — a completed agent has left every queue) is never interned, and
:meth:`wire_size` reads totals kept up to date as ids and queues
arrive. A delta-patched view does not copy its base's
finished set either: its ``updated`` is a
:class:`~repro.core.machines.wire.SharedSet` over the stored view's
set plus the delta's ids, merged part by part.
"""

from __future__ import annotations

from collections import Counter
from typing import AbstractSet, Dict, List, Optional, Set, Tuple

from repro.errors import ProtocolError
from repro.agents.identity import AgentId, ids_wire_size
from repro.core.machines.intern import Interner
from repro.core.machines.wire import SharedSet, SharedView, SharedViewDelta

__all__ = ["LockingTable"]


class LockingTable:
    """Per-agent accumulated lock knowledge."""

    def __init__(self) -> None:
        self.views: Dict[str, SharedView] = {}
        #: the UAL: every id a merged view or delta knew finished
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
        #: finished flag per slot (the UAL restricted to queued ids)
        self._done = bytearray()
        # :meth:`wire_size` totals, maintained as state arrives: the
        # distinct ids known (queued or finished) with their summed id
        # bytes, and the per-view host-name / queue-slot sums.
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
        #: ``_packed[host]`` before it is flagged. Flags only go 0 -> 1,
        #: so this holds until the queue is replaced or loses entries,
        #: which drop the host's entry (a scan from 0).
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
        self._n_ids = len(self.ual)
        self._id_bytes = ids_wire_size(self.ual)
        for host, view in self.views.items():
            self._packed[host] = self._pack(view.view)
            self._charge(host, +1)
        self._dirty.update(self._packed)

    # -- packed-index plumbing ---------------------------------------------

    def _slot(self, agent_id: AgentId) -> int:
        """Interned slot of a queued ``agent_id``, growing the flag slab
        if new (an id already known finished starts out flagged)."""
        slot = self._ids.intern(agent_id)
        if slot == len(self._done):
            if agent_id in self.ual:
                self._done.append(1)
            else:
                self._done.append(0)
                self._n_ids += 1
                self._id_bytes += agent_id.wire_size()
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

    def _finish(self, new_ids: AbstractSet) -> None:
        """Ids that just joined the UAL: flag the queued ones, account
        the rest — they appear in no stored locking list, so no effective
        top can depend on them and they need no slot."""
        queued = self._ids.known(new_ids)
        if queued:
            index_of = self._ids.index_of
            topped = self._topped
            for agent_id in queued:
                slot = index_of(agent_id)
                self._done[slot] = 1
                hosts = topped.get(slot)
                if hosts:
                    # A current top finished: its hosts need a rescan.
                    self._dirty.update(hosts)
            new_ids = new_ids - queued
        self._n_ids += len(new_ids)
        self._id_bytes += ids_wire_size(new_ids)

    def _charge(self, host: str, sign: int) -> None:
        """Add (+1) ``host``'s stored view to the :meth:`wire_size`
        totals, or take it out (-1) before it is replaced."""
        self._host_chars += sign * len(host)
        self._queue_slots += sign * len(self._packed[host])

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

    def update(self, view: SharedView) -> bool:
        """Merge a server view; keeps only the freshest per host.

        The view's ``updated`` set is always merged into the UAL (finished
        is monotone knowledge even from an older snapshot).
        Returns True if the view replaced the stored one.

        This is the flattened LL/UL->LT merge: one pass marks newly
        finished agents in both the UAL and the flag slab, and an
        adopted view is interned into its packed form immediately —
        nothing is re-materialised later.

        A view stamped with a server sequence number at or below this
        table's acknowledged sequence for that host is discarded in
        O(1) — both its queue (``as_of`` cannot be fresher)
        and its updated knowledge (monotone in ``seq``) are
        subsets of what was already merged. This is what turns the
        per-visit bulletin re-merge from O(hosts × agents) into O(hosts).
        """
        seq = view.seq
        if seq >= 0:
            acked = self.acked.get(view.host, -1)
            if seq < acked:
                return False
            if seq == acked:
                # Same sequence → identical queue/updated content;
                # only the timestamp can differ. Adopt a fresher one
                # without re-merging (the packed index and the tally
                # stay valid — no effective top can move).
                if view.is_newer_than(self.views.get(view.host)):
                    self._charge(view.host, -1)
                    self.views[view.host] = view
                    self._charge(view.host, +1)
                    return True
                return False
        new_ids = view.updated - self.ual
        if new_ids:
            self.ual |= new_ids
            self._finish(new_ids)
        host = view.host
        stored = self.views.get(host)
        if view.is_newer_than(stored):
            if stored is not None:
                self._charge(host, -1)
            self.views[host] = view
            self._packed[host] = self._pack(view.view)
            self._scan_from.pop(host, None)
            self._dirty.add(host)
            if seq >= 0:
                # A full snapshot at seq was adopted wholesale: this
                # table now holds the complete state at that sequence.
                self.acked[host] = seq
            self._charge(host, +1)
            return True
        return False

    def apply_delta(self, delta: SharedViewDelta) -> bool:
        """Patch one host's state in place from a server delta.

        O(changed entries): only newly finished ids touch the UAL flag
        slab, and the packed slot list is edited rather than re-packed. The stored
        :class:`SharedView` is rebuilt to exactly what the server's full
        snapshot at ``delta.seq`` would have been (queue reconstruction
        is exact because LL appends land strictly at the tail; its
        ``updated`` is the stored set plus ``finished``, shared rather
        than copied), so everything downstream — bulletin deposits,
        freshness checks, pickled suitcases — is indistinguishable from
        having merged the full snapshot.

        Returns True if anything changed.
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
        self._charge(host, -1)
        changed = False
        new_updated = stored.updated
        if delta.finished:
            new_updated = SharedSet.grow(new_updated, delta.finished)
            new_ids = set(delta.finished) - self.ual
            if new_ids:
                self.ual |= new_ids
                self._finish(new_ids)
                changed = True
        # Rebuild this host's queue at delta.seq. The packed list
        # mirrors the stored one position for position, so an id to
        # drop is located as an int and deleted from both.
        queue = stored.view
        if delta.removed or delta.appended:
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
                queue = tuple(ids)
            if delta.appended:
                queue += delta.appended
                packed.extend(self._pack(delta.appended))
            self._packed[host] = packed
            self._dirty.add(host)
            changed = True
        self.views[host] = SharedView(
            host=host,
            as_of=delta.as_of,
            view=queue,
            updated=new_updated,
            seq=delta.seq,
        )
        self.acked[host] = delta.seq
        self._charge(host, +1)
        return changed

    def ingest(self, view) -> bool:
        """Merge a visit's view, whichever encoding the server chose."""
        if type(view) is SharedViewDelta:
            return self.apply_delta(view)
        return self.update(view)

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

    def top_counts(self, extra_done: frozenset = frozenset()) -> Counter:
        """How many known servers each agent currently tops."""
        _tops, topped = self._tops_slots(extra_done)
        value = self._ids.value
        return Counter(
            {value(slot): len(hosts) for slot, hosts in topped.items()}
        )

    def wire_size(self) -> int:
        """Approximate bytes the LT adds to the agent's migrations.

        Compact suitcase encoding: the dictionary of every id this
        table has seen (queued or finished) ships once, every per-host
        queue is 4-byte indices into it, and the UAL plus each view's
        finished set are dense bitsets over it — instead of repeating
        the full AgentId tuple for every occurrence in every view. Every
        term is a running total, so this is O(1).
        """
        hosts = len(self.views)
        bitset = (self._n_ids + 7) // 8
        return (
            16 + bitset  # container + global UAL bitset
            + self._id_bytes
            # per view: host + as_of + seq, queue slots, the view's
            # updated-set bitset
            + (16 + 8 + 8 + bitset) * hosts + self._host_chars
            + 4 * self._queue_slots
        )

    def __repr__(self) -> str:
        return (
            f"<LockingTable hosts={len(self.views)} ual={len(self.ual)}>"
        )
