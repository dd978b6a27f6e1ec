"""The replica protocol kernel — the paper's Algorithm 2, sans-IO.

A :class:`ReplicaMachine` is the *logic* of one replicated server: the
versioned store, the Updated List, the bulletin board and, per key, a
:class:`KeyLock` — the key's Locking List, the exclusive update grant
behind every acknowledgement (or taken on a visit) and the messages
held for a winner (docs/protocol.md §2, "One lock per key"). It is a
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

__all__ = ["KeyLock", "ReplicaMachine"]

#: Message kinds the replica machine consumes.
HANDLED_KINDS = (
    "UPDATE", "COMMIT", "ABORT", "RELEASE",
    "SYNC_REQUEST", "SYNC_REPLY", "READQ",
)


class KeyLock:
    """One key's lock state at one replica: its Locking List, its
    exclusive update grant, and the pipelined UPDATEs and COMMITs held
    there for a winner on the key (batch id -> payload; see
    :meth:`ReplicaMachine._waits` and :meth:`ReplicaMachine._serve_held`).

    While the grant is held (and unexpired), UPDATEs for the key from
    other agents are NACKed, which is what makes a majority of ACKs an
    exclusive critical section for the key regardless of how stale the
    claimer's Locking Table was. A replica keeps a key's lock only
    while it is not :meth:`idle`: a released grant resets every field,
    so a lock dropped and made again is indistinguishable from one kept.
    """

    __slots__ = ("queue", "holder", "batch", "epoch", "expires_at",
                 "held_updates", "held_commits")

    def __init__(self, host: str) -> None:
        self.queue = LockingList(host)
        self.holder: Optional[AgentId] = None
        self.batch: Optional[int] = None
        self.epoch = 0
        self.expires_at = float("-inf")
        self.held_updates: Dict[int, UpdatePayload] = {}
        self.held_commits: Dict[int, UpdatePayload] = {}

    def is_free(self, now: float) -> bool:
        return self.holder is None or now > self.expires_at

    def idle(self) -> bool:
        """Nothing queued, granted or held: the replica drops it."""
        return not (
            self.queue or self.holder is not None
            or self.held_updates or self.held_commits
        )

    def release(
        self, agent_id: AgentId, up_to_epoch: Optional[int] = None
    ) -> None:
        """Free the grant if held by ``agent_id``.

        ``up_to_epoch`` (RELEASE/ABORT messages) guards against the race
        where a re-claim's UPDATE overtakes the failed claim's RELEASE:
        a release must not clear a grant issued for a *later* epoch.
        """
        if self.holder != agent_id:
            return
        if up_to_epoch is not None and self.epoch > up_to_epoch:
            return
        self.holder = None
        self.batch = None
        self.epoch = 0
        self.expires_at = float("-inf")

    def __repr__(self) -> str:
        return (
            f"<KeyLock ll={len(self.queue)} holder={self.holder} "
            f"held={len(self.held_updates)}+{len(self.held_commits)}>"
        )


class ReplicaMachine:
    """Pure Algorithm 2 state: store, UL, history, journal, bulletin
    board, and a :class:`KeyLock` per key."""

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
        #: key -> its lock state, for the keys with an agent queued, a
        #: grant or a held message here (:meth:`_drop_if_idle`)
        self.locks: Dict[str, KeyLock] = {}
        #: agent -> the key it writes, from its first enqueue or UPDATE
        #: here to its COMMIT or ABORT: RELEASE and ABORT name no key
        self._key_of: Dict[AgentId, str] = {}
        #: Locking-List entries over all keys (the gauge's reading)
        self.queued = 0
        self.updated_list = UpdatedList(
            retention=UL_WINDOW_FACTOR * tunables.grant_ttl
        )
        self.history = HistoryLog(host)
        #: the bulletin board: other server -> the freshest view of a
        #: Locking List there that a visitor deposited, of whichever key
        #: the visitor writes; a visitor reads its own key's views
        self.board: Dict[str, SharedView] = {}
        #: other server -> the key of its view on the board
        self._board_keys: Dict[str, str] = {}
        #: key -> how many of the board's views are that key's
        self._board_count: Dict[str, int] = {}

        #: mutation journal that lets :meth:`begin_visit` hand returning
        #: visitors only what changed since their acknowledged sequence:
        #: one sequence for every key
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

    def lock(self, key: str) -> KeyLock:
        """``key``'s lock state here; an idle one is a fresh, unstored
        :class:`KeyLock` (read it; changing it changes nothing)."""
        lock = self.locks.get(key)
        return lock if lock is not None else KeyLock(self.host)

    def _open(self, key: str) -> KeyLock:
        lock = self.locks.get(key)
        if lock is None:
            lock = self.locks[key] = KeyLock(self.host)
        return lock

    def _drop_if_idle(self, key: Optional[str]) -> None:
        lock = self.locks.get(key)
        if lock is not None and lock.idle():
            del self.locks[key]

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
        for key, lock in list(self.locks.items()):
            lock.held_updates.clear()
            self._drop_if_idle(key)
        return [
            Send(host, "SYNC_REQUEST", {})
            for host in self.peers if host != self.host
        ] or self._rejoin(now)

    # ------------------------------------------------------------------
    # Local interface used by co-located mobile agents
    # ------------------------------------------------------------------

    def begin_visit(
        self, agent_id: AgentId, request_id: int, now: float, acked: int,
        key: str, grant: bool = False, epoch: int = 0,
    ) -> Tuple[VisitData, List[Effect]]:
        """One agent visit: guarded lock enqueue + information exchange,
        on ``key``, the one key the visitor's batch writes.

        Returns the :class:`VisitData` the agent machine needs (fresh
        view of the key's lock, the board's views of the key, post-enqueue
        rank) plus any effects (a ``QueueChanged`` when the visit
        appended a lock entry, and those of :meth:`_lapse`). The agent's
        answering ``PostBulletin`` effect is routed back to
        :meth:`post_bulletin` by the driver.

        ``acked`` is the visitor's acknowledged sequence for this server
        (:meth:`LockingTable.acked_seq`). While the journal still
        retains that base, the handed view is a :class:`SharedViewDelta`
        covering only what changed since — including this visit's own
        enqueue, exactly like the full snapshot would. First contact
        (``acked`` = -1) or an evicted/reset base fall back to the full
        snapshot.

        ``grant`` asks for the key's grant: it is taken, stamped with
        ``epoch``, when the key's Locking List holds the visitor alone
        and the grant is free or already the visitor's — the same
        exclusive grant an UPDATE takes, so the visitor may count it
        toward its claim's majority.
        """
        effects = self._lapse(key, now)
        lock = self.locks.get(key)
        enqueued = False
        if (
            (lock is None or not lock.queue.heard(agent_id, now))
            and agent_id not in self.updated_list
        ):
            effects.extend(self.request_lock(agent_id, request_id, now, key))
            enqueued = True
            lock = self.locks[key]
        granted = None
        if grant and lock is not None and self._grants_on_visit(
            lock, agent_id, now
        ):
            self._take_grant(lock, agent_id, request_id, epoch, now)
            granted = ({key: self.store.version_of(key)}, now)
            effects.append(Granted(agent_id, request_id, epoch, visit=True))
        view: Any = self.delta_view(now, acked, key)
        finished = frozenset()
        if view is not None:
            self.deltas_served += 1
        else:
            if acked >= 0:
                self.fallbacks_served += 1
            view = self.lock_view(now, key)
            finished = self.updated_list.as_set()
        data = VisitData(
            view=view,
            bulletin=self.read_bulletin(key),
            rank=None if lock is None else lock.queue.rank(agent_id),
            ll_len=0 if lock is None else len(lock.queue),
            enqueued=enqueued,
            finished=finished,
            grant=granted,
        )
        return data, effects

    def request_lock(
        self, agent_id: AgentId, request_id: int, now: float, key: str
    ) -> List[Effect]:
        """Append the visiting agent to ``key``'s Locking List
        (idempotent)."""
        lock = self.locks.get(key)
        if lock is not None and agent_id in lock.queue:
            return []
        if agent_id in self.updated_list:
            raise ProtocolError(
                f"agent {agent_id} already completed its update; it must "
                "not re-request the lock"
            )
        self._open(key).queue.append(
            LockEntry(agent_id=agent_id, request_id=request_id, heard_at=now)
        )
        self.queued += 1
        self._key_of[agent_id] = key
        self.journal.bump("enq", agent_id, key)
        return [QueueChanged()]

    def lock_view(self, now: float, key: str) -> SharedView:
        """Fresh snapshot of this server's Locking List for ``key`` (the
        Updated List, pruned to its window here, is read beside it)."""
        self.updated_list.prune(now)
        lock = self.locks.get(key)
        return SharedView(
            host=self.host,
            as_of=now,
            view=() if lock is None else lock.queue.view(),
            seq=self.journal.seq,
        )

    def delta_view(
        self, now: float, base_seq: int, key: str
    ) -> Optional[SharedViewDelta]:
        """Delta of ``key``'s lock state since ``base_seq``, or None
        when only a full snapshot will do (first contact, base
        evicted/reset).

        The delta's ``finished`` may name ids the window has since
        pruned from this server's UL — safe: finished is monotone
        knowledge, pruning only forgets.
        """
        self.updated_list.prune(now)
        return self.journal.delta_since(base_seq, now, key)

    def read_bulletin(self, key: str) -> Dict[str, SharedView]:
        """The board's views of *other* servers' lists for ``key``.

        The board itself when every view on it is ``key``'s (always, at
        one key), not a copy: the visitor only reads it, and posts back
        after it has."""
        if not self.tunables.enable_bulletin:
            return {}
        board = self.board
        mine = self._board_count.get(key, 0)
        if mine == len(board):
            return board
        if not mine:
            return {}
        keys = self._board_keys
        return {host: view for host, view in board.items()
                if keys[host] == key}

    def post_bulletin(self, views: Dict[str, SharedView], key: str) -> int:
        """Deposit a visitor's views of ``key``'s lists; the board keeps
        only the freshest view per server, of whichever key.

        ``views`` may be a visitor's whole table, this server's own
        entry included (ignored: our own state is always fresher
        locally); nothing of it is kept but the view objects. Returns
        the number of entries that were news to this server.
        """
        if not self.tunables.enable_bulletin:
            return 0
        posted = 0
        board = self.board
        keys = self._board_keys
        count = self._board_count
        own = self.host
        for host, view in views.items():
            current = board.get(host)
            if view is current or host == own:
                continue
            if current is None or view.as_of > current.as_of:
                board[host] = view
                posted += 1
                was = keys.get(host)
                if was != key:
                    keys[host] = key
                    count[key] = count.get(key, 0) + 1
                    if was is not None:
                        count[was] -= 1
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
            keys = payload.keys
            if keys is None or len(keys) != 1:
                raise ProtocolError(
                    f"an UPDATE names the one key its agent writes: {keys!r}"
                )
            key = keys[0]
            effects = self._lapse(key, now)
            agent_id = payload.agent_id
            if agent_id not in self.updated_list:
                self._key_of[agent_id] = key
            lock = self._open(key)
            lock.queue.heard(agent_id, now)
            if self._waits(lock, payload, now):
                lock.held_updates[payload.batch_id] = payload
                return effects
            effects += self._on_update(lock, key, payload, now)
            self._drop_if_idle(key)
            return effects
        if kind == "COMMIT":
            key = (
                payload.writes[0].key if payload.writes
                else self._key_of.get(payload.agent_id)
            )
            return self._lapse(key, now) + self._on_commit(key, payload, now)
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

    def _grants_on_visit(self, lock: KeyLock, agent_id: AgentId,
                         now: float) -> bool:
        """The visitor stands alone in the key's Locking List, and the
        key's grant is free or already the visitor's."""
        return (
            len(lock.queue) == 1
            and agent_id in lock.queue
            and (agent_id == lock.holder or lock.is_free(now))
        )

    def _take_grant(self, lock: KeyLock, agent_id: AgentId, batch_id: int,
                    epoch: int, now: float) -> None:
        if lock.holder == agent_id:
            # A stale request must not roll the epoch backwards.
            lock.epoch = max(lock.epoch, epoch)
        else:
            lock.epoch = epoch
        lock.holder = agent_id
        lock.batch = batch_id
        lock.expires_at = now + self.tunables.grant_ttl
        lock.queue.heard(agent_id, now)

    def _on_update(self, lock: KeyLock, key: str, payload: UpdatePayload,
                   now: float) -> List[Effect]:
        """Grant request: ACK (with our version of the UPDATE's key)
        or NACK.

        The ACK's version is what lets the winner pick one above
        everything previously committed ([D3]): any earlier winner's
        grant on the key here was released by processing its COMMIT,
        i.e. *after* applying its writes, so an ACK never predates a
        commit on the key this server participated in.

        An UPDATE from an agent this server already saw finish (its
        COMMIT overtook it) is answered as any other, but takes no
        grant: a finished agent will never release one.
        """
        if payload.agent_id == lock.holder or lock.is_free(now):
            return self._ack(lock, key, payload, now)
        self.nacks_sent += 1
        holder = lock.holder
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

    def _ack(self, lock: KeyLock, key: str, payload: UpdatePayload,
             now: float) -> List[Effect]:
        """Take the grant (unless the sender finished) and ACK with this
        server's version of the UPDATE's key, as it is now."""
        if payload.agent_id not in self.updated_list:
            self._take_grant(
                lock, payload.agent_id, payload.batch_id, payload.epoch, now
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
                    "versions": {key: self.store.version_of(key)},
                },
            ),
        ]

    def _waits(self, lock: KeyLock, payload: UpdatePayload,
               now: float) -> bool:
        """A pipelined UPDATE (one naming the winner W it is ``behind``,
        a writer of the same key) is held, not answered, while W is
        still queued in the key's list or another agent holds the key's
        grant."""
        behind = payload.behind
        return behind is not None and (
            behind in lock.queue
            or not (payload.agent_id == lock.holder or lock.is_free(now))
        )

    def _lapse(self, key: Optional[str], now: float) -> List[Effect]:
        """Evict each head of ``key``'s Locking List silent for one
        hygiene window (docs/protocol.md §2); any grant its agent took
        here is over."""
        lock = self.locks.get(key)
        if lock is None:
            return []
        lapsed = lock.queue.lapse(now - self.updated_list.retention)
        if not lapsed:
            return []
        for agent_id in lapsed:
            self.journal.bump("deq", agent_id, key)
        self.queued -= len(lapsed)
        self.evicted += len(lapsed)
        effects = [QueueChanged(), ReleaseNotify(key)]
        effects += self._serve_held(lock, key, now)
        self._drop_if_idle(key)
        return effects

    def _serve_held(self, lock: KeyLock, key: str,
                    now: float) -> List[Effect]:
        """After a step that may have freed the key's grant or dequeued
        a winner on it: apply each held COMMIT whose winner has left the
        key's Locking List (in turn, so a chain of them applies in
        order), then answer each held UPDATE that no longer waits,
        exactly as an UPDATE arriving now would be ACKed."""
        effects: List[Effect] = []
        held = lock.held_commits
        while held:
            ready = [
                batch_id for batch_id, payload in held.items()
                if payload.behind not in lock.queue
            ]
            if not ready:
                break
            for batch_id in ready:
                effects += self._apply_commit(key, held.pop(batch_id), now)
        if lock.held_updates:
            for batch_id, payload in list(lock.held_updates.items()):
                if not self._waits(lock, payload, now):
                    del lock.held_updates[batch_id]
                    effects += self._ack(lock, key, payload, now)
        return effects

    def _on_commit(self, key: Optional[str], payload: UpdatePayload,
                   now: float) -> List[Effect]:
        """Apply a COMMIT, unless it is pipelined behind a winner still
        queued in the key's list: then it is held whole until that
        winner leaves, so its writes never overtake the winner's."""
        lock = self.locks.get(key)
        if lock is None:
            return self._apply_commit(key, payload, now)
        lock.held_updates.pop(payload.batch_id, None)
        if payload.behind is not None and payload.behind in lock.queue:
            lock.held_commits[payload.batch_id] = payload
            return []
        effects = self._apply_commit(key, payload, now)
        effects += self._serve_held(lock, key, now)
        self._drop_if_idle(key)
        return effects

    def _apply_commit(
        self, key: Optional[str], payload: UpdatePayload, now: float
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
        return effects + self._finish(payload.agent_id, key, now)

    def _on_abort(self, payload: UpdatePayload, now: float) -> List[Effect]:
        """An agent gave up on its request entirely: forget it."""
        key = self._key_of.get(payload.agent_id)
        lock = self.locks.get(key)
        if lock is None:
            # Nothing of it here, so no key: the release is every key's.
            return self._finish(payload.agent_id, None, now) + (
                self._serve_every_key(now)
            )
        lock.held_updates.pop(payload.batch_id, None)
        effects = self._finish(payload.agent_id, key, now)
        effects += self._serve_held(lock, key, now)
        self._drop_if_idle(key)
        return effects

    def _finish(self, agent_id: AgentId, key: Optional[str],
                now: float) -> List[Effect]:
        """The agent is done here: free its grant on ``key``, dequeue
        it, and list it in the Updated List."""
        self._key_of.pop(agent_id, None)
        lock = self.locks.get(key)
        if lock is not None:
            lock.release(agent_id)
            if lock.queue.remove(agent_id):
                self.queued -= 1
                self.journal.bump("deq", agent_id, key)
        if self.updated_list.add(agent_id, at=now):
            self.journal.bump("fin", agent_id)
        return [QueueChanged(), ReleaseNotify(key)]

    def _on_release(self, payload: UpdatePayload, now: float) -> List[Effect]:
        """A claim failed: give back the grant, keep the lock entry; a
        held UPDATE of the same or an earlier epoch is dropped. (A
        RELEASE names no key: the replica knows it from the agent's
        UPDATE, visit or grant here; without one, nothing here is the
        agent's, and the step serves every key's held messages.)"""
        key = self._key_of.get(payload.agent_id)
        lock = self.locks.get(key)
        if lock is None:
            return self._serve_every_key(now)
        held = lock.held_updates.get(payload.batch_id)
        if held is not None and held.epoch <= payload.epoch:
            del lock.held_updates[payload.batch_id]
        lock.release(payload.agent_id, up_to_epoch=payload.epoch)
        effects = self._serve_held(lock, key, now)
        self._drop_if_idle(key)
        return effects

    def _serve_every_key(self, now: float) -> List[Effect]:
        """:meth:`_serve_held` on every stored key (each has a queued
        agent, a grant or a held message, so they are as many as the
        agents in flight at most)."""
        effects: List[Effect] = []
        for key, lock in list(self.locks.items()):
            effects += self._serve_held(lock, key, now)
            self._drop_if_idle(key)
        return effects

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
        finished = self.updated_list
        # Stale lock entries from agents that finished while we were down
        # would wedge their key's LL top forever; clear them.
        for lock in self.locks.values():
            for agent_id in list(lock.queue.view()):
                if agent_id in finished:
                    lock.queue.remove(agent_id)
                    self.queued -= 1
            if lock.holder is not None and lock.holder in finished:
                lock.release(lock.holder)
        for agent_id in [a for a in self._key_of if a in finished]:
            del self._key_of[agent_id]
        # The catch-up rewrote store/UL/LL state in bulk; rather than
        # journal a bulk diff, invalidate the window so every visitor
        # takes the full-snapshot fallback once.
        self.journal.reset()
        return [
            Recovered(sources), QueueChanged(), ReleaseNotify(None),
        ] + self._serve_every_key(now)

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
            f"<ReplicaMachine {self.host!r} ll={self.queued} "
            f"ul={len(self.updated_list)} commits={self.commits_applied}>"
        )
