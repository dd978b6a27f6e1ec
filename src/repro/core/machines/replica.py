"""The replica protocol kernel — the paper's Algorithm 2, sans-IO.

A :class:`ReplicaMachine` is the *logic* of one replicated server: the
versioned store, the Locking List and Updated List, the bulletin board,
and the exclusive update grant behind every acknowledgement (or taken
on a visit). It is a
pure state machine — time enters only through ``now`` arguments, every
outward action is returned as a typed effect, and nothing in here knows
whether it runs under the discrete-event simulator, a live thread, or a
replay harness.

Two kinds of entry points:

* the **local interface** (``begin_visit``, ``request_lock``,
  ``lock_view``, ``post_bulletin`` …) used by a co-located mobile agent
  during a visit — method calls, "taking the advantage of being in the
  same site as the peer process";
* the **message interface** (:meth:`on` / :meth:`on_message`) for
  UPDATE / COMMIT / ABORT / RELEASE / SYNC_REQUEST / SYNC_REPLY / READQ,
  each returning the effects the driver must perform.

A crash stays driver-side: a crashed server simply stops feeding its
machine (fail-stop). Recovery is one input every substrate feeds when
the host comes back, :meth:`ReplicaMachine.restarted`.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set, Tuple

from repro.errors import ProtocolError
from repro.core.machines.identity import AgentId
from repro.core.machines.effects import (
    CommitApplied,
    Effect,
    Granted,
    Nacked,
    QueueChanged,
    Recovered,
    ReleaseNotify,
    Send,
)
from repro.core.machines.config import UL_WINDOW_FACTOR
from repro.core.machines.delta import DeltaJournal
from repro.core.machines.events import MsgReceived
from repro.core.machines.structures import (
    CommitRecord,
    HistoryLog,
    LockEntry,
    LockingList,
    UpdatedList,
    VersionedStore,
)
from repro.core.machines.wire import (
    SharedView,
    SharedViewDelta,
    UpdatePayload,
    VisitData,
    WriteOp,
)

__all__ = ["ReplicaMachine"]

#: Message kinds the replica machine consumes.
HANDLED_KINDS = (
    "UPDATE", "COMMIT", "ABORT", "RELEASE",
    "SYNC_REQUEST", "SYNC_REPLY", "READQ",
)


class ReplicaMachine:
    """Pure Algorithm 2 state: store, LL, UL, history, bulletin, grant."""

    def __init__(self, host: str, peers, tunables) -> None:
        if host not in peers:
            raise ProtocolError(f"peers list must include the host {host!r}")
        self.host = host
        self.peers = list(peers)
        #: duck-typed: only ``grant_ttl`` and ``enable_bulletin`` are read,
        #: and they are read per-call so live config mutation is honoured
        #: (the UL window below is fixed from ``grant_ttl`` here).
        self.tunables = tunables

        self.store = VersionedStore()
        self.locking_list = LockingList(host)
        self.updated_list = UpdatedList(
            retention=UL_WINDOW_FACTOR * tunables.grant_ttl
        )
        self.history = HistoryLog(host)
        self.bulletin: Dict[str, SharedView] = {}
        #: pipelined UPDATEs and COMMITs waiting here for the winner
        #: they name in ``behind`` (batch id -> payload; see
        #: :meth:`_waits` and :meth:`_serve_held`)
        self.held_updates: Dict[int, UpdatePayload] = {}
        self.held_commits: Dict[int, UpdatePayload] = {}
        # Exclusive update grant: the server-side promise behind an ACK.
        # While held (and unexpired), UPDATEs from other agents are
        # NACKed, which is what makes a majority of ACKs an exclusive
        # critical section regardless of how stale the claimer's Locking
        # Table was.
        self.grant_holder: Optional[AgentId] = None
        self.grant_batch: Optional[int] = None
        self.grant_epoch: int = 0
        self.grant_expires_at: float = float("-inf")

        #: mutation journal that lets :meth:`begin_visit` hand returning
        #: visitors only what changed since their acknowledged sequence.
        self.journal = DeltaJournal(host)

        #: while catching up after a restart, the peers whose
        #: SYNC_REPLY is in; None while the replica serves
        self.synced_from: Optional[Set[str]] = None

        self.acks_sent = 0
        self.nacks_sent = 0
        self.commits_applied = 0
        #: Locking-List entries that lapsed (:meth:`_lapse`)
        self.evicted = 0
        self.recoveries = 0
        #: visits answered with a :class:`SharedViewDelta`
        self.deltas_served = 0
        #: returning visitors (``acked`` >= 0) handed a full snapshot
        #: because their base was evicted from, or reset out of, the
        #: journal window
        self.fallbacks_served = 0

    @property
    def n_replicas(self) -> int:
        return len(self.peers)

    @property
    def catching_up(self) -> bool:
        """Restarted, and not yet answered by enough peers to rejoin."""
        return self.synced_from is not None

    def restarted(self, now: float) -> List[Effect]:
        """The host came back up: ask every other host for its state,
        and serve again once ``N//2 + 1`` of them (at most all) have
        answered (docs/protocol.md §4, "Recovery"). Until then visits
        are refused and UPDATE and READQ go unanswered, held ones too:
        their claimers' ack timers settle them."""
        self.synced_from = set()
        self.held_updates.clear()
        return [
            Send(host, "SYNC_REQUEST", {})
            for host in self.peers if host != self.host
        ] or self._rejoin(now)

    # ------------------------------------------------------------------
    # Local interface used by co-located mobile agents
    # ------------------------------------------------------------------

    def begin_visit(
        self, agent_id: AgentId, request_id: int, now: float, acked: int,
        keys: Optional[Tuple[str, ...]] = None, epoch: int = 0,
    ) -> Tuple[VisitData, List[Effect]]:
        """One agent visit: guarded lock enqueue + information exchange.

        Returns the :class:`VisitData` the agent machine needs (fresh
        lock view, bulletin board, post-enqueue rank) plus any effects
        (a ``QueueChanged`` when the visit appended a lock entry, and
        those of :meth:`_lapse`). The agent's answering ``PostBulletin``
        effect is routed back to :meth:`post_bulletin` by the driver.

        ``acked`` is the visitor's acknowledged sequence for this server
        (:meth:`LockingTable.acked_seq`). While the journal still
        retains that base, the handed view is a :class:`SharedViewDelta`
        covering only what changed since — including this visit's own
        enqueue, exactly like the full snapshot would. First contact
        (``acked`` = -1) or an evicted/reset base fall back to the full
        snapshot.

        ``keys`` (the keys the visitor's batch writes) asks for the
        grant: it is taken, stamped with ``epoch``, when the Locking
        List holds the visitor alone and the grant is free or already
        the visitor's — the same exclusive grant an UPDATE takes, so
        the visitor may count it toward its claim's majority.
        """
        effects = self._lapse(now)
        enqueued = False
        if (
            not self.locking_list.heard(agent_id, now)
            and agent_id not in self.updated_list
        ):
            effects.extend(self.request_lock(agent_id, request_id, now))
            enqueued = True
        grant = None
        if keys is not None and self._grants_on_visit(agent_id, now):
            self._take_grant(agent_id, request_id, epoch, now)
            grant = (self._versions(keys), now)
            effects.append(Granted(agent_id, request_id, epoch, visit=True))
        view: Any = self.delta_view(now, acked)
        finished = frozenset()
        if view is not None:
            self.deltas_served += 1
        else:
            if acked >= 0:
                self.fallbacks_served += 1
            view = self.lock_view(now)
            finished = self.updated_list.as_set()
        data = VisitData(
            view=view,
            # The board itself, not a copy: the visitor only reads it,
            # and posts back after it has.
            bulletin=self.bulletin if self.tunables.enable_bulletin else {},
            rank=self.locking_list.rank(agent_id),
            ll_len=len(self.locking_list),
            enqueued=enqueued,
            finished=finished,
            grant=grant,
        )
        return data, effects

    def request_lock(
        self, agent_id: AgentId, request_id: int, now: float
    ) -> List[Effect]:
        """Append the visiting agent to the Locking List (idempotent)."""
        if agent_id in self.locking_list:
            return []
        if agent_id in self.updated_list:
            raise ProtocolError(
                f"agent {agent_id} already completed its update; it must "
                "not re-request the lock"
            )
        self.locking_list.append(
            LockEntry(agent_id=agent_id, request_id=request_id, heard_at=now)
        )
        self.journal.bump("enq", agent_id)
        return [QueueChanged()]

    def lock_view(self, now: float) -> SharedView:
        """Fresh snapshot of this server's Locking List (the Updated
        List, pruned to its window here, is read beside it)."""
        self.updated_list.prune(now)
        return SharedView(
            host=self.host,
            as_of=now,
            view=self.locking_list.view(),
            seq=self.journal.seq,
        )

    def delta_view(
        self, now: float, base_seq: int
    ) -> Optional[SharedViewDelta]:
        """Delta since ``base_seq``, or None when only a full snapshot
        will do (first contact, base evicted/reset).

        The delta's ``finished`` may name ids the window has since
        pruned from this server's UL — safe: finished is monotone
        knowledge, pruning only forgets.
        """
        self.updated_list.prune(now)
        return self.journal.delta_since(base_seq, now)

    def read_bulletin(self) -> Dict[str, SharedView]:
        """Views of *other* servers deposited by previous visitors."""
        if not self.tunables.enable_bulletin:
            return {}
        return dict(self.bulletin)

    def post_bulletin(self, views: Dict[str, SharedView]) -> int:
        """Deposit lock views; keeps only the freshest per server.

        ``views`` may be a visitor's whole table, this server's own
        entry included (ignored: our own state is always fresher
        locally); nothing of it is kept but the view objects. Returns
        the number of entries that were news to this server.
        """
        if not self.tunables.enable_bulletin:
            return 0
        posted = 0
        board = self.bulletin
        own = self.host
        for host, view in views.items():
            current = board.get(host)
            if view is current or host == own:
                continue
            if current is None or view.as_of > current.as_of:
                board[host] = view
                posted += 1
        return posted

    def apply_write(self, write: WriteOp, origin: str, now: float) -> bool:
        """Install one committed write in the store and, if it was news
        (not a duplicate or superseded), record it in the history. Every
        protocol's commit lands here, the baselines' participants too."""
        if not self.store.apply(write.key, write.value, write.version, now):
            return False
        self.history.append(CommitRecord(
            request_id=write.request_id, key=write.key, value=write.value,
            version=write.version, committed_at=now, origin=origin,
        ))
        return True

    def read(self, key: str):
        """Local read — the paper's fast read path (not guaranteed fresh)."""
        return self.store.read(key)

    def version_of(self, key: str) -> int:
        return self.store.version_of(key)

    def last_update_time(self, key: str) -> float:
        return self.store.last_update_time(key)

    # ------------------------------------------------------------------
    # Message interface (Algorithm 2's message clauses)
    # ------------------------------------------------------------------

    def on(self, event: MsgReceived) -> List[Effect]:
        return self.on_message(
            event.kind, event.payload, src=event.src, now=event.now
        )

    def on_message(
        self, kind: str, payload: Any, src: str = "", now: float = 0.0
    ) -> List[Effect]:
        if kind == "UPDATE":
            if self.synced_from is not None:
                return []
            effects = self._lapse(now)
            self.locking_list.heard(payload.agent_id, now)
            if self._waits(payload, now):
                self.held_updates[payload.batch_id] = payload
                return effects
            return effects + self._on_update(payload, now)
        if kind == "COMMIT":
            return self._lapse(now) + self._on_commit(payload, now)
        if kind == "ABORT":
            return self._on_abort(payload, now)
        if kind == "RELEASE":
            return self._on_release(payload, now)
        if kind == "SYNC_REQUEST":
            return self._on_sync_request(src)
        if kind == "SYNC_REPLY":
            return self._on_sync_reply(payload, src, now)
        if kind == "READQ":
            if self.synced_from is not None:
                return []
            return self._on_read_query(payload, src)
        raise ProtocolError(f"replica machine cannot handle {kind!r}")

    def grant_is_free(self, now: float) -> bool:
        return self.grant_holder is None or now > self.grant_expires_at

    def release_grant(
        self, agent_id: AgentId, up_to_epoch: Optional[int] = None
    ) -> None:
        """Free the grant if held by ``agent_id``.

        ``up_to_epoch`` (RELEASE/ABORT messages) guards against the race
        where a re-claim's UPDATE overtakes the failed claim's RELEASE:
        a release must not clear a grant issued for a *later* epoch.
        """
        if self.grant_holder != agent_id:
            return
        if up_to_epoch is not None and self.grant_epoch > up_to_epoch:
            return
        self.grant_holder = None
        self.grant_batch = None
        self.grant_epoch = 0
        self.grant_expires_at = float("-inf")

    def _grants_on_visit(self, agent_id: AgentId, now: float) -> bool:
        """The visitor stands alone in the Locking List, and the grant
        is free or already the visitor's."""
        return (
            len(self.locking_list) == 1
            and agent_id in self.locking_list
            and (agent_id == self.grant_holder or self.grant_is_free(now))
        )

    def _take_grant(self, agent_id: AgentId, batch_id: int, epoch: int,
                    now: float) -> None:
        if self.grant_holder == agent_id:
            # A stale request must not roll the epoch backwards.
            self.grant_epoch = max(self.grant_epoch, epoch)
        else:
            self.grant_epoch = epoch
        self.grant_holder = agent_id
        self.grant_batch = batch_id
        self.grant_expires_at = now + self.tunables.grant_ttl
        self.locking_list.heard(agent_id, now)

    def _versions(self, keys) -> Dict[str, int]:
        return {key: self.store.version_of(key) for key in keys}

    def _on_update(self, payload: UpdatePayload, now: float) -> List[Effect]:
        """Grant request: ACK (with our versions of the UPDATE's keys)
        or NACK.

        The ACK's versions are what lets the winner pick versions above
        everything previously committed ([D3]): any earlier winner's
        grant here was released by processing its COMMIT, i.e. *after*
        applying its writes, so an ACK never predates a commit this
        server participated in.

        An UPDATE from an agent this server already saw finish (its
        COMMIT overtook it) is answered as any other, but takes no
        grant: a finished agent will never release one.
        """
        if payload.agent_id == self.grant_holder or self.grant_is_free(now):
            return self._ack(payload, now)
        self.nacks_sent += 1
        holder = self.grant_holder
        return [
            Nacked(payload.agent_id, payload.batch_id, holder),
            Send(
                payload.reply_to,
                "NACK",
                {
                    "batch_id": payload.batch_id,
                    "epoch": payload.epoch,
                    "from": self.host,
                    "holder": str(holder),
                },
            ),
        ]

    def _ack(self, payload: UpdatePayload, now: float) -> List[Effect]:
        """Take the grant (unless the sender finished) and ACK with this
        server's versions of the UPDATE's keys, as they are now."""
        if payload.agent_id not in self.updated_list:
            self._take_grant(
                payload.agent_id, payload.batch_id, payload.epoch, now
            )
        self.acks_sent += 1
        return [
            Granted(payload.agent_id, payload.batch_id, payload.epoch),
            Send(
                payload.reply_to,
                "ACK",
                {
                    "batch_id": payload.batch_id,
                    "epoch": payload.epoch,
                    "from": self.host,
                    "versions": self._versions(payload.keys or ()),
                },
            ),
        ]

    def _waits(self, payload: UpdatePayload, now: float) -> bool:
        """A pipelined UPDATE (one naming the winner W it is ``behind``)
        is held, not answered, while W is still queued here or another
        agent holds the grant."""
        behind = payload.behind
        return behind is not None and (
            behind in self.locking_list
            or not (
                payload.agent_id == self.grant_holder
                or self.grant_is_free(now)
            )
        )

    def _lapse(self, now: float) -> List[Effect]:
        """Evict each Locking-List head silent for one hygiene window
        (docs/protocol.md §2); any grant its agent took here is over."""
        lapsed = self.locking_list.lapse(now - self.updated_list.retention)
        if not lapsed:
            return []
        for agent_id in lapsed:
            self.journal.bump("deq", agent_id)
        self.evicted += len(lapsed)
        return [QueueChanged(), ReleaseNotify()] + self._serve_held(now)

    def _serve_held(self, now: float) -> List[Effect]:
        """After a step that may have freed the grant or dequeued a
        winner: apply each held COMMIT whose winner has left the Locking
        List (in turn, so a chain of them applies in order), then answer
        each held UPDATE that no longer waits, exactly as an UPDATE
        arriving now would be ACKed."""
        effects: List[Effect] = []
        held = self.held_commits
        while held:
            ready = [
                batch_id for batch_id, payload in held.items()
                if payload.behind not in self.locking_list
            ]
            if not ready:
                break
            for batch_id in ready:
                effects += self._apply_commit(held.pop(batch_id), now)
        if self.held_updates:
            for batch_id, payload in list(self.held_updates.items()):
                if not self._waits(payload, now):
                    del self.held_updates[batch_id]
                    effects += self._ack(payload, now)
        return effects

    def _on_commit(self, payload: UpdatePayload, now: float) -> List[Effect]:
        """Apply a COMMIT, unless it is pipelined behind a winner still
        queued here: then it is held whole until that winner leaves, so
        its writes never overtake the winner's."""
        self.held_updates.pop(payload.batch_id, None)
        if payload.behind is not None and payload.behind in self.locking_list:
            self.held_commits[payload.batch_id] = payload
            return []
        return self._apply_commit(payload, now) + self._serve_held(now)

    def _apply_commit(
        self, payload: UpdatePayload, now: float
    ) -> List[Effect]:
        # COMMIT is self-contained: even if our UPDATE was lost (e.g. we
        # were briefly down), the commit can still be applied.
        effects: List[Effect] = []
        for write in payload.writes:
            if self.apply_write(write, payload.origin, now):
                self.commits_applied += 1
                effects.append(
                    CommitApplied(
                        payload.agent_id, write.request_id,
                        write.key, write.version,
                    )
                )
        # Locks from this agent are removed regardless of staleness.
        return effects + self._finish(payload.agent_id, now)

    def _on_abort(self, payload: UpdatePayload, now: float) -> List[Effect]:
        """An agent gave up on its request entirely: forget it."""
        self.held_updates.pop(payload.batch_id, None)
        return self._finish(payload.agent_id, now) + self._serve_held(now)

    def _finish(self, agent_id: AgentId, now: float) -> List[Effect]:
        """The agent is done here: free its grant, dequeue it, and list
        it in the Updated List."""
        self.release_grant(agent_id)
        if self.locking_list.remove(agent_id):
            self.journal.bump("deq", agent_id)
        if self.updated_list.add(agent_id, at=now):
            self.journal.bump("fin", agent_id)
        return [QueueChanged(), ReleaseNotify()]

    def _on_release(self, payload: UpdatePayload, now: float) -> List[Effect]:
        """A claim failed: give back the grant, keep the lock entry; a
        held UPDATE of the same or an earlier epoch is dropped."""
        held = self.held_updates.get(payload.batch_id)
        if held is not None and held.epoch <= payload.epoch:
            del self.held_updates[payload.batch_id]
        self.release_grant(payload.agent_id, up_to_epoch=payload.epoch)
        return self._serve_held(now)

    def _on_sync_request(self, src: str) -> List[Effect]:
        reply = Send(src, "SYNC_REPLY", {
            "snapshot": self.store.snapshot(),
            "updated": tuple(self.updated_list.ids()),
        }, category="data")
        # A peer that asks is up: if it has not answered us, our own
        # request may have reached it while it was down.
        if self.synced_from is not None and src not in self.synced_from:
            return [reply, Send(src, "SYNC_REQUEST", {})]
        return [reply]

    def _on_sync_reply(
        self, payload: Dict[str, Any], src: str, now: float
    ) -> List[Effect]:
        synced_from = self.synced_from
        if synced_from is None:
            return []  # the catch-up it answers is over
        # The snapshot keeps the higher version of each key.
        self.store.install_snapshot(payload["snapshot"], now)
        for agent_id in payload["updated"]:
            self.updated_list.add(agent_id, at=now)
        synced_from.add(src)
        if len(synced_from) < min(self.n_replicas // 2 + 1,
                                  self.n_replicas - 1):
            return []
        return self._rejoin(now)

    def _rejoin(self, now: float) -> List[Effect]:
        sources = tuple(sorted(self.synced_from))
        self.synced_from = None
        self.recoveries += 1
        # Stale lock entries from agents that finished while we were down
        # would wedge our LL top forever; clear them.
        for agent_id in list(self.locking_list.view()):
            if agent_id in self.updated_list:
                self.locking_list.remove(agent_id)
        if self.grant_holder is not None and self.grant_holder in self.updated_list:
            self.release_grant(self.grant_holder)
        # The catch-up rewrote store/UL/LL state in bulk; rather than
        # journal a bulk diff, invalidate the window so every visitor
        # takes the full-snapshot fallback once.
        self.journal.reset()
        return [
            Recovered(sources), QueueChanged(), ReleaseNotify(),
        ] + self._serve_held(now)

    def _on_read_query(
        self, payload: Dict[str, Any], src: str
    ) -> List[Effect]:
        """Quorum-read support ([D5] extension): report version + value."""
        key = payload["key"]
        entry = self.store.read(key)
        return [
            Send(
                src,
                "READR",
                {
                    "request_id": payload["request_id"],
                    "key": key,
                    "from": self.host,
                    "version": entry.version if entry else 0,
                    "value": entry.value if entry else None,
                },
            )
        ]

    def __repr__(self) -> str:
        return (
            f"<ReplicaMachine {self.host!r} ll={len(self.locking_list)} "
            f"ul={len(self.updated_list)} commits={self.commits_applied}>"
        )
