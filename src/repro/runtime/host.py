"""Live host runtime: one replica server as a real thread/process.

Each :class:`HostRuntime` is the live **driver** for the same sans-IO
protocol kernel the DES backend runs: one
:class:`~repro.core.machines.replica.ReplicaMachine` for the replica
side, and one :class:`~repro.core.machines.agent.AgentMachine` rebuilt
around every visiting agent's shipped state. The runtime owns only the
execution substrate — the real clock, the transport mailboxes, pickled
migration, claim deadlines, the parked-agent table and the back-off RNG
— and translates kernel effects into transport sends, shipments, parks
and result records. This is the Aglets-prototype-shaped half of the
reproduction; consistency comes from the shared kernel, not from
re-implemented control flow.

Observability: when a hub is attached (injected, or process-wide via
:func:`repro.obs.enable` before the cluster starts), the runtime emits
the same span vocabulary as the DES driver — ``request`` /
``lock-wait`` / ``migrate`` / ``park`` / ``claim`` — with one twist:
an agent's spans are recorded by *several host threads*, stitched into
one journey by the trace context (``trace_id`` + root span id) carried
in the migrating :class:`~repro.runtime.shipping.LiveAgentState`.
Phase spans are recorded retroactively by whichever host completes the
phase (the phase's start timestamp travels with the agent), so no host
ever needs to mutate another thread's open span except the journey
root, which the disposing host finishes by id.
"""

from __future__ import annotations

import hashlib
import queue
import random
import time
from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.agents.identity import AgentId
from repro.core.machines.agent import BACKOFF, PARKED, AgentMachine
from repro.core.machines.config import LIVE_TUNABLES
from repro.core.machines.effects import (
    Backoff,
    Broadcast,
    CancelTimer,
    ClaimResolved,
    ClaimStarted,
    Dispose,
    LockWon,
    Migrate,
    Park,
    PostBulletin,
    ReleaseNotify,
    Send,
    SetTimer,
    Visit,
)
from repro.core.machines.events import (
    Arrived,
    MsgReceived,
    ReplicaDown,
    TimerFired,
)
from repro.core.machines.replica import ReplicaMachine
from repro.core.machines.structures import LockEntry
from repro.core.machines.wire import UpdatePayload, WriteOp
from repro.runtime.shipping import LiveAgentState, ship, unship
from repro.runtime.transport import LiveMessage, LiveTransport

__all__ = ["HostRuntime", "LiveConfig", "now_ms", "stable_seed"]


def now_ms() -> float:
    """Wall clock in milliseconds (monotonic)."""
    return time.monotonic() * 1000.0


def stable_seed(host: str, seed: int = 0, salt: str = "") -> int:
    """A process-independent RNG seed for ``host``.

    ``hash(host)`` is salted by PYTHONHASHSEED and therefore differs
    between runs (and between the threads and forked processes of a
    cluster started with a different interpreter), which silently broke
    run-to-run reproducibility of the live back-off jitter. A sha256
    digest of ``seed:salt:host`` is stable everywhere.
    """
    digest = hashlib.sha256(f"{seed}:{salt}:{host}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass
class LiveConfig:
    """Tunables of the live runtime (all times in real ms).

    The protocol fields double as the kernel machines' tunables object
    (they are read per-use, so tests may mutate them) and default to the
    kernel's :data:`~repro.core.machines.config.LIVE_TUNABLES`; ``tick``
    is the driver's own mailbox poll interval.
    """

    park_timeout: float = LIVE_TUNABLES.park_timeout
    ack_timeout: float = LIVE_TUNABLES.ack_timeout
    grant_ttl: float = LIVE_TUNABLES.grant_ttl
    max_claims: int = LIVE_TUNABLES.max_claims
    claim_backoff: float = LIVE_TUNABLES.claim_backoff
    tick: float = 10.0
    enable_bulletin: bool = LIVE_TUNABLES.enable_bulletin


@dataclass
class _Claim:
    """A claim round in flight at this host (driver-side bookkeeping)."""

    machine: AgentMachine
    state: LiveAgentState
    deadline: Optional[float] = None
    timer_kind: str = "ack"
    started_at: float = 0.0


class _StoreView:
    """Dict-flavoured facade over the kernel's :class:`VersionedStore`.

    Keeps the live runtime's historical ``store[key] == (value, version)``
    surface (used by tests and the final dumps) while the machine owns
    the real versioned state.
    """

    def __init__(self, store) -> None:
        self._store = store

    def __setitem__(self, key: str, pair: Tuple[object, int]) -> None:
        value, version = pair
        self._store.apply(key, value, version, 0.0)

    def __getitem__(self, key: str) -> Tuple[object, int]:
        entry = self._store.read(key)
        if entry is None:
            raise KeyError(key)
        return (entry.value, entry.version)

    def __contains__(self, key: str) -> bool:
        return self._store.read(key) is not None

    def __len__(self) -> int:
        return len(self._store.keys())

    def items(self):
        for key in self._store.keys():
            entry = self._store.read(key)
            yield key, (entry.value, entry.version)

    def keys(self):
        return self._store.keys()


class _LockingListView:
    """``[(agent_id, batch_id), ...]`` facade over the kernel's LL."""

    def __init__(self, locking_list) -> None:
        self._ll = locking_list

    def __iter__(self):
        return iter(
            [(e.agent_id, e.request_id) for e in self._ll.entries()]
        )

    def __len__(self) -> int:
        return len(self._ll)

    def append(self, pair: Tuple[AgentId, int]) -> None:
        agent_id, batch_id = pair
        entries = self._ll.entries()
        at = entries[-1].enqueued_at if entries else 0.0
        self._ll.append(
            LockEntry(agent_id=agent_id, request_id=batch_id, enqueued_at=at)
        )


class HostRuntime:
    """The event loop of one live replica host."""

    def __init__(
        self,
        host: str,
        peers: List[str],
        transport: LiveTransport,
        config: Optional[LiveConfig] = None,
        seed: int = 0,
        obs=None,
    ) -> None:
        self.host = host
        self.peers = sorted(peers)
        self.n = len(self.peers)
        self.majority = self.n // 2 + 1
        self.transport = transport
        self.config = config or LiveConfig()
        self.seed = seed
        # Same zero-cost discipline as the DES components: resolve the
        # hub once, at construction; every record below is behind one
        # `is not None` check. (With the thread backend all hosts share
        # the process hub, so spans from different hosts land in one
        # tracer and cross-hop parent links stay resolvable.)
        if obs is None:
            from repro.obs.hub import get_hub

            obs = get_hub()
        self._obs = obs

        #: the replica-side protocol kernel (single-owner: only this
        #: runtime's thread feeds it).
        self.machine = ReplicaMachine(host, self.peers, self.config)
        self.store = _StoreView(self.machine.store)
        self.locking_list = _LockingListView(self.machine.locking_list)

        self.parked: Dict[AgentId, Tuple[LiveAgentState, float]] = {}
        self.claims: Dict[int, _Claim] = {}
        self._agent_seq = 0
        self._rng = random.Random(stable_seed(host, seed))
        self._stopping = False
        self._last_activity = float("-inf")
        #: quiet ms after STOP before the final dump, so in-flight
        #: COMMITs (still sitting in delivery timers) are not lost.
        self.stop_grace = 150.0

    # -- machine state, exposed for tests/audits --------------------------

    @property
    def history(self) -> List[Tuple[int, str, int]]:
        return self.machine.history.identities()

    @property
    def updated(self):
        return self.machine.updated_list

    @property
    def bulletin(self):
        return self.machine.bulletin

    @property
    def grant_holder(self) -> Optional[AgentId]:
        return self.machine.grant_holder

    @property
    def grant_epoch(self) -> int:
        return self.machine.grant_epoch

    @property
    def grant_expires(self) -> float:
        return self.machine.grant_expires_at

    # ------------------------------------------------------------------

    def run(self) -> None:
        """The host's main loop; exits after STOP once claims drain."""
        self.transport.reseed(
            stable_seed(self.host, self.seed, salt="transport") & 0xFFFFFFFF
        )
        mailbox = self.transport.mailbox(self.host)
        while True:
            try:
                msg = mailbox.get(timeout=self.config.tick / 1000.0)
            except queue.Empty:
                msg = None
            now = now_ms()
            if msg is not None:
                self._last_activity = now
                self._dispatch(msg, now)
            self._check_timers(now)
            if (
                self._stopping
                and not self.claims
                and now - self._last_activity > self.stop_grace
            ):
                self._emit_final()
                return

    def _send(self, dst: str, kind: str, payload, size: int = 0) -> None:
        self.transport.send(
            LiveMessage(
                kind=kind, src=self.host, dst=dst, payload=payload,
                size_bytes=size,
            )
        )

    def _broadcast(self, kind: str, payload) -> None:
        for peer in self.peers:
            self._send(peer, kind, payload)

    # -- dispatch --------------------------------------------------------

    def _dispatch(self, msg: LiveMessage, now: float) -> None:
        kind = msg.kind
        if kind == "WRITE":
            self._on_write(msg, now)
        elif kind == "AGENT":
            state = unship(msg.payload)
            state.hops += 1
            if state.migrate_sent_at is not None:
                # The hop completes here: record it against the send
                # time the origin host stamped into the suitcase.
                self._hop_span(
                    state, "migrate", state.migrate_sent_at, now,
                    src=state.migrate_src or "", dst=self.host,
                )
                state.migrate_sent_at = None
                state.migrate_src = None
            self._drive(state, now)
        elif kind in ("ACK", "NACK"):
            self._on_reply(kind, msg, now)
        elif kind in ("UPDATE", "COMMIT", "ABORT", "RELEASE"):
            self._on_replica_msg(msg, now)
        elif kind == "STOP":
            self._stopping = True

    # -- client writes ------------------------------------------------------

    def _on_write(self, msg: LiveMessage, now: float) -> None:
        p = msg.payload
        self._agent_seq += 1
        state = LiveAgentState(
            agent_id=AgentId(self.host, now, self._agent_seq),
            home=self.host,
            batch_id=p["request_id"],
            requests=[
                (p["request_id"], p["key"], p["value"], p["created_at"])
            ],
            tour_remaining=[h for h in self.peers if h != self.host],
            location=self.host,
            dispatched_at=now,
        )
        state.trace_id = str(state.agent_id)
        state.lock_wait_since = now
        if self._obs is not None:
            root = self._obs.start_span(
                "request", start=now, trace_id=state.trace_id,
                agent=str(state.agent_id), host=self.host,
                batch_id=state.batch_id, protocol="marp", backend="live",
            )
            state.trace_root = root.span_id
        self._drive(state, now)

    # -- span recording (all guarded on the resolved hub) -----------------

    def _hop_span(self, state: LiveAgentState, name: str, start: float,
                  end: float, status: str = "ok", **attrs) -> None:
        """Record one completed phase span of an agent's journey."""
        if self._obs is None:
            return
        self._obs.start_span(
            name, start=start, parent=state.trace_root,
            trace_id=state.trace_id, agent=str(state.agent_id), **attrs
        ).finish(end=end, status=status)

    def _finish_lock_wait(self, state: LiveAgentState, now: float,
                          status: str = "ok", **attrs) -> None:
        """Close the current lock-wait window (idempotent)."""
        if state.lock_wait_since is not None:
            self._hop_span(
                state, "lock-wait", state.lock_wait_since, now,
                status=status, **attrs,
            )
            state.lock_wait_since = None

    # -- agent driving (the kernel's effects, interpreted live) --------------

    def _drive(self, state: LiveAgentState, now: float) -> None:
        """An agent is at this host: visit, then claim/migrate/park."""
        machine = AgentMachine(state, self.peers, self.config)
        self._run_agent(machine, [Visit()], now)

    def _wake(self, state: LiveAgentState, now: float) -> None:
        """A parked or backing-off agent re-enters the acquisition loop."""
        machine = AgentMachine(state, self.peers, self.config)
        if state.phase == BACKOFF:
            effects = machine.on(TimerFired("backoff", now))
        else:
            if state.parked_since is not None:
                self._hop_span(
                    state, "park", state.parked_since, now, host=self.host
                )
            # Mark parked so the machine applies its wake semantics
            # ([D2] refresh tour) on the next arrival.
            state.phase = PARKED
            effects = [Visit()]
        state.parked_since = None
        self._run_agent(machine, effects, now)

    def _start_claim(self, state: LiveAgentState, now: float) -> None:
        """Open a claim round directly (the lock is already held)."""
        machine = AgentMachine(state, self.peers, self.config)
        state.location = self.host
        # ALT boundary: the last (successful) acquisition wins, matching
        # the DES backend's semantics for re-claims.
        state.lock_acquired_at = now
        state.visits_to_lock = len(state.visited)
        self._finish_lock_wait(state, now)
        self._run_agent(machine, machine.start_claim(now), now)

    def _run_agent(self, machine: AgentMachine, effects, now: float) -> None:
        """Flat interpretation loop over one agent machine's effects."""
        state: LiveAgentState = machine.state
        pending = deque(effects)
        while pending:
            effect = pending.popleft()
            if isinstance(effect, Visit):
                state.location = self.host
                data, reffects = self.machine.begin_visit(
                    state.agent_id, state.batch_id, now,
                    acked=state.table.acked_seq(self.host),
                )
                self._perform_replica(reffects, now)
                pending.extend(
                    machine.on(
                        Arrived(
                            host=self.host, now=now, view=data.view,
                            bulletin=data.bulletin, rank=data.rank,
                            ll_len=data.ll_len,
                        )
                    )
                )
            elif isinstance(effect, PostBulletin):
                self.machine.post_bulletin(effect.views)
            elif isinstance(effect, Migrate):
                # The live itinerary is static name order (the kernel
                # emits the candidates sorted).
                dst = effect.candidates[0]
                # Stamp the hop start *into* the suitcase: the receiving
                # host closes the migrate span against this timestamp.
                state.migrate_sent_at = now
                state.migrate_src = self.host
                blob = ship(state)
                if not self._send_agent(dst, blob):
                    # Unreachable (blocked link) — the live equivalent of
                    # the paper's failed-migration detection.
                    self._hop_span(
                        state, "migrate", now, now,
                        status="unavailable", src=self.host, dst=dst,
                    )
                    state.migrate_sent_at = None
                    state.migrate_src = None
                    pending.extend(machine.on(ReplicaDown(dst, now)))
            elif isinstance(effect, Park):
                state.parked_since = now
                self.parked[state.agent_id] = (state, now + effect.timeout)
            elif isinstance(effect, Backoff):
                # Randomized backoff, then rejoin via the park machinery.
                # The lock must be re-acquired, so a fresh lock-wait
                # window opens here (DES parity: see UpdateAgent._backoff).
                state.lock_wait_since = now
                delay = (
                    self._rng.expovariate(1.0 / effect.mean)
                    if effect.mean > 0 else 0.0
                )
                self.parked[state.agent_id] = (state, now + delay)
            elif isinstance(effect, LockWon):
                state.lock_acquired_at = now
                state.visits_to_lock = effect.visits
                self._finish_lock_wait(
                    state, now,
                    visits=effect.visit_events, reason=effect.reason,
                )
            elif isinstance(effect, ClaimStarted):
                self.claims[state.batch_id] = _Claim(
                    machine=machine, state=state, started_at=now
                )
            elif isinstance(effect, SetTimer):
                claim = self.claims.get(state.batch_id)
                if claim is not None:
                    claim.deadline = now + effect.delay
                    claim.timer_kind = effect.kind
            elif isinstance(effect, CancelTimer):
                claim = self.claims.get(state.batch_id)
                if claim is not None and claim.timer_kind == effect.kind:
                    claim.deadline = None
            elif isinstance(effect, ClaimResolved):
                claim = self.claims.pop(state.batch_id, None)
                if claim is not None:
                    self._hop_span(
                        state, "claim", claim.started_at, now,
                        status=effect.outcome, epoch=effect.epoch,
                    )
            elif isinstance(effect, Broadcast):
                self._broadcast(
                    effect.kind, self._wire(effect.kind, effect.payload)
                )
            elif isinstance(effect, Send):
                self._send(effect.dst, effect.kind, effect.payload)
            elif isinstance(effect, Dispose):
                self._emit_records(state, effect, now)
                if effect.status != "committed":
                    # An aborted journey never won its lock: close the
                    # open wait window with the failure status (DES
                    # parity: see UpdateAgent._finish).
                    self._finish_lock_wait(state, now, status=effect.status)
                if self._obs is not None and state.trace_root is not None:
                    root = self._obs.tracer.get(state.trace_root)
                    if root is not None:
                        root.finish(end=now, status=effect.status)
            # Note effects carry trace detail; the live runtime keeps no
            # protocol trace.

    def _send_agent(self, dst: str, blob: bytes) -> bool:
        delay = self.transport.send(
            LiveMessage(
                kind="AGENT", src=self.host, dst=dst, payload=blob,
                size_bytes=len(blob),
            )
        )
        return delay >= 0

    # -- wire format (unchanged from the pre-kernel runtime) ----------------

    @staticmethod
    def _wire(kind: str, payload: UpdatePayload) -> dict:
        """Kernel payload -> the live wire's plain-dict format."""
        if kind == "UPDATE":
            return {
                "batch_id": payload.batch_id,
                "epoch": payload.epoch,
                "agent_id": payload.agent_id,
                "reply_to": payload.reply_to,
                "trace_id": payload.trace_id,
            }
        if kind == "COMMIT":
            return {
                "batch_id": payload.batch_id,
                "agent_id": payload.agent_id,
                "writes": tuple(
                    (w.request_id, w.key, w.value, w.version)
                    for w in payload.writes
                ),
                "origin": payload.origin,
                "trace_id": payload.trace_id,
            }
        if kind == "RELEASE":
            return {
                "batch_id": payload.batch_id,
                "agent_id": payload.agent_id,
                "epoch": payload.epoch,
            }
        return {  # ABORT
            "batch_id": payload.batch_id,
            "agent_id": payload.agent_id,
        }

    @staticmethod
    def _payload_from_wire(p: dict) -> UpdatePayload:
        """Live wire dict -> kernel payload.

        A RELEASE without an ``epoch`` key maps to ``epoch=None``, which
        the kernel treats as an unconditional (unguarded) release.
        """
        return UpdatePayload(
            batch_id=p.get("batch_id"),
            agent_id=p.get("agent_id"),
            origin=p.get("origin", ""),
            writes=tuple(
                WriteOp(
                    request_id=w[0], key=w[1], value=w[2], version=w[3]
                )
                for w in p.get("writes", ())
            ),
            reply_to=p.get("reply_to", ""),
            epoch=p.get("epoch"),
            trace_id=p.get("trace_id"),
        )

    # -- replica-side messages ------------------------------------------------

    def _on_replica_msg(self, msg: LiveMessage, now: float) -> None:
        payload = self._payload_from_wire(msg.payload)
        effects = self.machine.on_message(
            msg.kind, payload, src=msg.src, now=now
        )
        self._perform_replica(effects, now)

    def _perform_replica(self, effects, now: float) -> None:
        for effect in effects:
            if isinstance(effect, Send):
                self._send(effect.dst, effect.kind, effect.payload)
            elif isinstance(effect, ReleaseNotify):
                self._wake_parked(now)
            # Granted / Nacked / CommitApplied / QueueChanged / Recovered
            # are observability milestones; the live runtime has no hub.

    # -- claim replies --------------------------------------------------------

    def _on_reply(self, kind: str, msg: LiveMessage, now: float) -> None:
        claim = self.claims.get(msg.payload["batch_id"])
        if claim is None:
            return
        effects = claim.machine.on(
            MsgReceived(kind, msg.payload, now, src=msg.src)
        )
        self._run_agent(claim.machine, effects, now)

    def _emit_records(
        self, state: LiveAgentState, dispose: Dispose, now: float
    ) -> None:
        if dispose.status == "committed":
            for write in dispose.writes:
                self.transport.results.put(
                    {
                        "type": "record",
                        "request_id": write.request_id,
                        "status": "committed",
                        "home": state.home,
                        "dispatched_at": state.dispatched_at,
                        "lock_acquired_at": state.lock_acquired_at,
                        "completed_at": now,
                        "visits_to_lock": state.visits_to_lock,
                        "hops": state.hops,
                        "agent_id": str(state.agent_id),
                    }
                )
            return
        for request in state.requests:
            self.transport.results.put(
                {
                    "type": "record",
                    "request_id": request[0],
                    "status": "failed",
                    "home": state.home,
                    "dispatched_at": state.dispatched_at,
                    "lock_acquired_at": None,
                    "completed_at": now,
                    "visits_to_lock": None,
                    "hops": state.hops,
                    "agent_id": str(state.agent_id),
                }
            )

    # -- parked agents ([D2]) --------------------------------------------------

    def _wake_parked(self, now: float) -> None:
        woken, self.parked = self.parked, {}
        for state, _deadline in woken.values():
            self._wake(state, now)

    # -- timers -------------------------------------------------------------------

    def _check_timers(self, now: float) -> None:
        for batch_id in list(self.claims):
            claim = self.claims.get(batch_id)
            if (
                claim is not None
                and claim.deadline is not None
                and now > claim.deadline
            ):
                claim.deadline = None
                self._run_agent(
                    claim.machine,
                    claim.machine.on(TimerFired(claim.timer_kind, now)),
                    now,
                )
        due = [
            agent_id
            for agent_id, (_state, deadline) in self.parked.items()
            if now > deadline
        ]
        for agent_id in due:
            state, _deadline = self.parked.pop(agent_id)
            self._wake(state, now)

    # -- shutdown --------------------------------------------------------------------

    def _emit_final(self) -> None:
        self.transport.results.put(
            {
                "type": "final",
                "host": self.host,
                "store": {
                    k: (repr(v), ver) for k, (v, ver) in self.store.items()
                },
                "history": list(self.history),
                "locking_list_len": len(self.locking_list),
                "parked": len(self.parked),
            }
        )
