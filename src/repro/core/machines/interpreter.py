"""The one effect interpreter every execution backend runs.

The machines say *what* must happen next
(:mod:`~repro.core.machines.effects`); this module is the only place
that decides what each effect *means*: which input it feeds back, which
table it touches, which milestone it marks. A backend supplies the rest
— a clock, a transport, timers, randomness and record-keeping — as a
:class:`Substrate`, and is otherwise free of protocol control flow.

One :class:`EffectInterpreter` serves one host: its
:class:`~repro.core.machines.replica.ReplicaMachine`, a baseline's
participant there if one is attached
(:mod:`~repro.core.machines.participants`), and whatever agents are
currently there. It owns

* the dispatch of every agent, replica and coordinator effect (a handler
  table keyed by effect class; an effect without a handler is a
  :class:`~repro.errors.ProtocolError`, never a silent skip);
* the **parked table** ([D2]) — insertion-ordered, so a lock release
  wakes agents in the order they parked, on every backend;
* the **message routes** — a message goes to the replica, or to the
  participant that declared its kind; a reply goes to the claim table;
* the **claim table** — ACK/NACK/READR replies are routed to the
  claiming agent by batch id; a coordinator (a quorum read, a baseline's
  write) takes its replies under its request id;
* **timer tokens** — a timer that was cancelled or replaced before it
  fired is recognised and dropped here, so a substrate may forget a
  cancelled timer but never has to;
* span and metric emission for the protocol milestones, written once:
  a phase's start time travels in the agent's suitcase
  (:class:`~repro.core.machines.agent.AgentCoreState`) and the span is
  recorded by whichever host completes the phase, which works the same
  whether the agent crossed a simulated link, a pickle hop or nothing.

The substrate calls in through :meth:`~EffectInterpreter.launch`,
:meth:`~EffectInterpreter.arrived`, :meth:`~EffectInterpreter.unreachable`,
:meth:`~EffectInterpreter.deliver`, :meth:`~EffectInterpreter.reply`,
:meth:`~EffectInterpreter.coordinate` and :meth:`~EffectInterpreter.attach`,
and through the ``fire`` callables it was handed with each timer.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Dict, Iterable, Optional, Set

from repro.errors import ProtocolError
from repro.core.machines.identity import AgentId
from repro.core.machines.agent import AgentCoreState, AgentMachine
from repro.core.machines.effects import (
    Backoff,
    Broadcast,
    CancelTimer,
    ClaimResolved,
    ClaimStarted,
    CommitApplied,
    Dispose,
    Done,
    Effect,
    Granted,
    LockWon,
    Migrate,
    Nacked,
    Note,
    Park,
    PostBulletin,
    QueueChanged,
    Recovered,
    ReleaseNotify,
    Send,
    SetTimer,
    Text,
    Visit,
)
from repro.core.machines.events import Arrived, ReplicaDown, TimerFired
from repro.core.machines.replica import ReplicaMachine

__all__ = ["EffectInterpreter", "Resident", "Substrate"]

#: Replies a replica addresses to a claim or a quorum read at a host,
#: not to that host's replica. (A baseline's participant declares the
#: reply kinds of its protocol, see :meth:`EffectInterpreter.attach`.)
AGENT_BOUND = ("ACK", "NACK", "READR")

Fire = Callable[[], None]


class Resident:
    """One agent (or coordinator) as the interpreter holds it at a host.

    Backends subclass it to hang their per-agent records on; a backend
    that ships agents as bytes builds a fresh one around the unshipped
    state at every hop (nothing here needs to survive a hop: an agent
    only leaves with no timer armed and no claim open).
    """

    def __init__(self, machine: AgentMachine) -> None:
        self.machine = machine
        #: timer kind -> the one armed instance of that timer
        self.timers: Dict[str, "_Timer"] = {}
        #: effects still to interpret, while a batch of them is running
        self.batch: Optional[deque] = None
        #: cuts the current park short (from :meth:`Substrate.park`)
        self.release: Optional[Fire] = None
        self.claim_started_at = 0.0
        #: how the open claim runs: "round" (UPDATE) or "visit" (grants)
        self.claim_path = ""
        #: the journey's root span, while this object has not been shipped
        self.root_span: Any = None


class _Timer:
    """One armed timer: the ``fire`` callable a substrate is handed and,
    by identity, its own token."""

    __slots__ = ("fired", "agent", "kind")

    def __init__(self, fired: Callable[["_Timer"], None], agent: Resident,
                 kind: str) -> None:
        self.fired = fired
        self.agent = agent
        self.kind = kind

    def __call__(self) -> None:
        self.fired(self)


class _Handlers(dict):
    """Effect class -> handler; an effect nobody handles is an error."""

    def __missing__(self, effect_class: type):
        raise ProtocolError(
            f"no interpretation for effect {effect_class.__name__}"
        )


class Substrate:
    """What an execution backend supplies to an :class:`EffectInterpreter`.

    The first group has no default. The second has the defaults of a
    backend whose visits are free; the discrete-event backend overrides
    the park, the visit cost and the record-keeping. Every backend
    pushes the messages it receives, claim replies included, at
    :meth:`EffectInterpreter.deliver` as they arrive.
    """

    def now(self) -> float:
        """The host's clock, in ms."""
        raise NotImplementedError

    def send(self, dst: str, kind: str, payload: Any, category: str) -> None:
        """Transmit one protocol message from this host."""
        raise NotImplementedError

    def broadcast(self, kind: str, payload: Any) -> None:
        """Transmit one message to every replica, this host included."""
        raise NotImplementedError

    def set_timer(self, delay: float, fire: Fire) -> Any:
        """Call ``fire()`` once, ``delay`` ms from now."""
        raise NotImplementedError

    def ship_agent(self, agent: Resident, dst: str) -> None:
        """Move ``agent`` to ``dst``: later call ``arrived`` on the
        interpreter there, or ``unreachable(agent, dst)`` on this one."""
        raise NotImplementedError

    def choose(self, agent: Resident, candidates: frozenset) -> str:
        """The itinerary policy: which of ``candidates`` to visit next.
        The candidates are unordered: a policy that goes by name takes
        ``min(candidates)``."""
        raise NotImplementedError

    def sample_backoff(self, agent: Resident, mean: float) -> float:
        """A back-off delay of the given mean (> 0)."""
        raise NotImplementedError

    def disposed(self, agent: Resident, effect: Dispose) -> None:
        """Keep the records of a finished agent."""
        raise NotImplementedError

    def cancel_timer(self, fire: Fire) -> None:
        """``fire`` (from any of the timer calls) will be ignored from
        now on: a substrate that keeps a timer table may drop it."""

    def park(self, timeout: float, fire: Fire) -> Fire:
        """Arm a park timer; returns what releases the agent early."""
        self.set_timer(timeout, fire)
        return fire

    def visit_cost(self) -> float:
        """Ms one local exchange with the replica takes."""
        return 0.0

    def lock_won(self, agent: Resident, effect: LockWon) -> None:
        """Keep the records of a lock acquisition."""

    def done(self, coordinator: Resident, effect: Done) -> None:
        """Keep the records of a finished coordinator."""

    def emit(self, kind: str, agent_id: Optional[AgentId],
             request_id: Optional[int], detail: Any,
             host: Optional[str]) -> None:
        """One line of the protocol trace (``host`` None = this host;
        the text is ``str(detail)``, see :class:`Note`)."""


class EffectInterpreter:
    """Interprets the effects of one host's replica and visiting agents.

    ``obs`` is an enabled observability hub or ``None`` (duck-typed, so
    the kernel still imports nothing outside itself); ``backend`` labels
    the journeys this interpreter roots. ``down`` makes the host
    fail-stop: its replica neither exchanges nor answers, and a visit
    yields ``ReplicaDown``. The replay harness sets it on a crash; the
    DES reads it from its fault plan's crash schedule (its network
    drops the messages).
    """

    down = False

    def __init__(self, host: str, replica: ReplicaMachine,
                 substrate: Substrate, obs=None, backend: str = "") -> None:
        self.host = host
        self.replica = replica
        self.substrate = substrate
        self.backend = backend
        #: agents parked here awaiting a release, in park order ([D2])
        self.parked: Dict[AgentId, Resident] = {}
        #: batch (or coordinator's request) id -> who takes its replies
        #: at this host
        self.claims: Dict[int, Resident] = {}
        #: message kind -> the participant here that takes it
        self.participants: Dict[str, Any] = {}
        #: kinds of the replies a coordinator here claims by ``rid``
        self.reply_kinds: Set[str] = set()
        self._sent_at: Optional[float] = None
        self._handlers = _Handlers({
            Migrate: self._migrate,
            Visit: self._visit_again,
            Park: self._park,
            Backoff: self._backoff,
            SetTimer: self._set_timer,
            CancelTimer: self._cancel_timer,
            Send: self._send,
            Broadcast: self._broadcast,
            PostBulletin: self._post_bulletin,
            Note: self._note,
            LockWon: self._lock_won,
            ClaimStarted: self._claim_started,
            ClaimResolved: self._claim_resolved,
            Dispose: self._dispose,
            Granted: self._granted,
            Nacked: self._nacked,
            CommitApplied: self._commit_applied,
            Recovered: self._recovered,
            QueueChanged: self._queue_changed,
            ReleaseNotify: self._release_notify,
            Done: self._done,
        })
        self._obs = obs
        if obs is not None:
            self._register_metrics(obs)

    def _register_metrics(self, obs) -> None:
        self._m_requests = obs.counter(
            "marp_requests_total", "update requests finished", ("status",)
        )
        self._m_claims = obs.counter(
            "marp_claims_total", "claims, by outcome and by path: an "
            "UPDATE round, or a majority of visit grants",
            ("outcome", "path"),
        )
        self._m_migrations = obs.counter(
            "marp_migrations_total", "agent migrations", ("outcome",)
        )
        self._m_parks = obs.counter(
            "marp_parks_total", "agents parked awaiting release", ("host",)
        )
        self._m_alt = obs.histogram(
            "marp_alt_ms", "per-request lock time (the paper's ALT)"
        )
        self._m_att = obs.histogram(
            "marp_att_ms", "per-request total time (the paper's ATT)",
            ("status",),
        )
        self._m_visits = obs.histogram(
            "marp_visits_to_lock", "distinct servers visited to win the lock",
            buckets=(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 15, 20),
        )
        self._m_ll = obs.gauge(
            "replica_ll_length", "Locking List length", ("host",)
        )
        self._m_grant_latency = obs.histogram(
            "replica_grant_latency_ms",
            "latency from UPDATE send to grant (ACK) issued", ("host",),
        )
        self._m_grants = obs.counter(
            "replica_grants_total",
            "grant decisions: ack/nack on an UPDATE, or a grant on a visit",
            ("host", "outcome"),
        )
        self._m_applies = obs.counter(
            "replica_commits_applied_total", "committed writes applied",
            ("host",),
        )
        self._m_ll.set(len(self.replica.locking_list), host=self.host)

    # -- inputs from the substrate ------------------------------------------

    def launch(self, agent: Resident) -> None:
        """A freshly created agent starts its journey at this host."""
        state = agent.machine.state
        now = self.substrate.now()
        state.dispatched_at = state.lock_wait_since = now
        # The causal trace context travels in the kernel state (and so in
        # every payload the machine emits), whether or not a hub records.
        state.trace_id = str(state.agent_id)
        self._emit(state, "dispatch", f"{len(state.requests)} request(s)")
        if self._obs is not None:
            agent.root_span = self._obs.start_span(
                "request", start=now, trace_id=state.trace_id,
                agent=state.trace_id, host=self.host,
                batch_id=state.batch_id, protocol="marp",
                backend=self.backend,
            )
            state.trace_root = agent.root_span.span_id
        self._visit(agent)

    def arrived(self, agent: Resident) -> None:
        """A shipped agent landed here: close the hop, then visit."""
        state = agent.machine.state
        state.hops += 1
        if state.migrate_sent_at is not None:
            self._close_hop(state, "ok", state.migrate_src or "", self.host)
        self._emit(state, "arrive")
        self._visit(agent)

    def unreachable(self, agent: Resident, dst: str) -> None:
        """Shipping ``agent`` from here to ``dst`` failed for this round."""
        state = agent.machine.state
        self._close_hop(state, "unavailable", self.host, dst)
        self._run(agent, agent.machine.on_replica_down(
            ReplicaDown(dst, self.substrate.now())
        ))

    def attach(self, participant) -> None:
        """Host a baseline's participant: the messages of its ``kinds``
        go to its ``on_message``, and the replies of its
        ``reply_kinds`` to the claim table under their ``rid``."""
        for kind in participant.kinds:
            self.participants[kind] = participant
        self.reply_kinds.update(participant.reply_kinds)

    def deliver(self, kind: str, payload: Any, src: str = "",
                sent_at: Optional[float] = None) -> None:
        """A protocol message reached this host."""
        if kind in AGENT_BOUND:
            taker = payload["request_id" if kind == "READR" else "batch_id"]
            if taker.__class__ is tuple:  # an RMW fetch's (batch, epoch, key)
                taker = taker[0]
            self.reply(taker, kind, payload)
        elif kind in self.reply_kinds:
            self.reply(payload["rid"], kind, payload)
        elif not self.down:
            self._sent_at = sent_at
            taker = self.participants.get(kind, self.replica)
            self.run_replica(taker.on_message(
                kind, payload, src=src, now=self.substrate.now()
            ))

    def reply(self, taker: int, kind: str, payload: Any) -> None:
        """A reply to whoever claimed ``taker`` here: a claiming agent's
        batch, a coordinator's request. One nobody claims (any more) is
        dropped."""
        claimer = self.claims.get(taker)
        if claimer is not None:
            self._run(claimer, claimer.machine.on_message(
                kind, payload, self.substrate.now()
            ))

    def coordinate(self, coordinator: Resident) -> None:
        """A coordinator starts here: a resident machine with a
        ``request_id`` (a :class:`~repro.core.machines.reader.ReaderMachine`,
        a baseline's write). It takes its replies through the claim table
        until it emits ``Done``."""
        self.claims[coordinator.machine.request_id] = coordinator
        self._run(coordinator, coordinator.machine.start())

    def evict(self, agent: Resident) -> None:
        """Forget an agent that vanished mid-flight (harness churn)."""
        state = agent.machine.state
        self.parked.pop(state.agent_id, None)
        self.claims.pop(state.batch_id, None)
        for kind in list(agent.timers):
            self._disarm(agent, kind)
        agent.release = None

    # -- the two interpretation loops ---------------------------------------

    def _run(self, agent: Resident, effects: Iterable[Effect]) -> None:
        """Interpret one agent's effects, follow-ups included, flat."""
        if agent.batch is not None:
            # Re-entered from a handler of this same agent (a free visit,
            # a shipment refused on the spot): queue behind the batch.
            agent.batch.extend(effects)
            return
        batch = agent.batch = deque(effects)
        handlers = self._handlers
        try:
            while batch:
                effect = batch.popleft()
                handlers[effect.__class__](agent, effect)
        finally:
            agent.batch = None

    def run_replica(self, effects: Iterable[Effect]) -> None:
        """Interpret effects of this host's replica machine (or of a
        participant)."""
        handlers = self._handlers
        for effect in effects:
            handlers[effect.__class__](None, effect)

    # -- visiting -----------------------------------------------------------

    def _visit(self, agent: Resident) -> None:
        cost = self.substrate.visit_cost()
        if cost > 0:
            self._arm(agent, "visit", cost, self.substrate.set_timer)
        else:
            self._exchange(agent)

    def _exchange(self, agent: Resident) -> None:
        """The local exchange with the co-located replica (one visit)."""
        machine = agent.machine
        state = machine.state
        now = self.substrate.now()
        if self.down:
            self._run(agent, machine.on_replica_down(
                ReplicaDown(self.host, now)
            ))
            return
        data, effects = self.replica.begin_visit(
            state.agent_id, state.batch_id, now,
            acked=state.table.acked_seq(self.host),
            keys=machine.grant_keys(), epoch=state.epoch,
        )
        self.run_replica(effects)
        self._run(agent, machine.on_arrived(Arrived(
            host=self.host, now=now, view=data.view, bulletin=data.bulletin,
            rank=data.rank, ll_len=data.ll_len, finished=data.finished,
            grant=data.grant,
        )))

    def _visit_again(self, agent: Resident, effect: Visit) -> None:
        self._visit(agent)

    # -- timers -------------------------------------------------------------

    def _arm(self, agent: Resident, kind: str, delay: float,
             how: Callable[[float, Fire], Any]) -> Any:
        """Arm ``agent``'s ``kind`` timer through ``how``, superseding
        any earlier instance of it."""
        self._disarm(agent, kind)
        timer = agent.timers[kind] = _Timer(self._fired, agent, kind)
        return how(delay, timer)

    def _disarm(self, agent: Resident, kind: str) -> None:
        timer = agent.timers.pop(kind, None)
        if timer is not None:
            self.substrate.cancel_timer(timer)

    def _fired(self, timer: _Timer) -> None:
        agent, kind = timer.agent, timer.kind
        if agent.timers.get(kind) is not timer:
            return  # cancelled, superseded, or the agent is gone
        del agent.timers[kind]
        if kind == "visit":
            self._exchange(agent)
        elif kind == "park":
            # A release got here before the timeout: the timer is spent.
            self.substrate.cancel_timer(timer)
            self._wake(agent)
        else:
            self._run(agent, agent.machine.on_timer(
                TimerFired(kind, self.substrate.now())
            ))

    def _set_timer(self, agent: Resident, effect: SetTimer) -> None:
        self._arm(agent, effect.kind, effect.delay, self.substrate.set_timer)

    def _cancel_timer(self, agent: Resident, effect: CancelTimer) -> None:
        self._disarm(agent, effect.kind)

    def _backoff(self, agent: Resident, effect: Backoff) -> None:
        if effect.mean > 0:
            self._arm(
                agent, "backoff",
                self.substrate.sample_backoff(agent, effect.mean),
                self.substrate.set_timer,
            )
        else:
            self._run(agent, agent.machine.on_timer(
                TimerFired("backoff", self.substrate.now())
            ))

    # -- movement and parking -----------------------------------------------

    def _migrate(self, agent: Resident, effect: Migrate) -> None:
        state = agent.machine.state
        dst = self.substrate.choose(agent, effect.candidates)
        self._emit(state, "migrate", f"-> {dst}")
        # The hop start rides in the suitcase: whoever ends the hop (the
        # destination, or this host on failure) records its span.
        state.migrate_sent_at = self.substrate.now()
        state.migrate_src = self.host
        self.substrate.ship_agent(agent, dst)

    def _close_hop(self, state: AgentCoreState, status: str,
                   src: str, dst: str) -> None:
        if self._obs is not None:
            self._span(
                state, "migrate", state.migrate_sent_at,
                self.substrate.now(), status, src=src, dst=dst,
            )
            self._m_migrations.inc(outcome=status)
        state.migrate_sent_at = state.migrate_src = None

    def _park(self, agent: Resident, effect: Park) -> None:
        state = agent.machine.state
        state.parked_since = self.substrate.now()
        if self._obs is not None:
            self._m_parks.inc(host=self.host)
        self.parked[state.agent_id] = agent
        agent.release = self._arm(
            agent, "park", effect.timeout, self.substrate.park
        )

    def _wake(self, agent: Resident) -> None:
        """A release or the park timeout: refresh the local view ([D2])."""
        state = agent.machine.state
        self.parked.pop(state.agent_id, None)
        agent.release = None
        if self._obs is not None:
            self._span(
                state, "park", state.parked_since, self.substrate.now(),
                host=self.host,
            )
        state.parked_since = None
        self._emit(state, "wake")
        self._visit(agent)

    def _release_notify(self, _agent, effect: ReleaseNotify) -> None:
        woken, self.parked = self.parked, {}
        for agent in woken.values():
            agent.release()

    # -- messages -----------------------------------------------------------

    def _send(self, _agent, effect: Send) -> None:
        self.substrate.send(
            effect.dst, effect.kind, effect.payload,
            effect.category or "control",
        )

    def _broadcast(self, agent: Resident, effect: Broadcast) -> None:
        self.substrate.broadcast(effect.kind, effect.payload)

    def _post_bulletin(self, agent: Resident, effect: PostBulletin) -> None:
        if not self.down:
            self.replica.post_bulletin(effect.views)

    # -- agent milestones ---------------------------------------------------

    def _emit(self, state: AgentCoreState, kind: str, detail: str = "",
              host: Optional[str] = None) -> None:
        self.substrate.emit(
            kind, state.agent_id, state.batch_id, detail, host
        )

    def _span(self, state: AgentCoreState, name: str, start: float,
              end: float, status: str = "ok", **attrs) -> None:
        """Record one completed phase of an agent's journey."""
        self._obs.start_span(
            name, start=start, parent=state.trace_root,
            trace_id=state.trace_id,
            agent=state.trace_id or str(state.agent_id), **attrs
        ).finish(end=end, status=status)

    def _end_lock_wait(self, state: AgentCoreState, now: float,
                       status: str = "ok", **attrs) -> None:
        if self._obs is not None and state.lock_wait_since is not None:
            self._span(
                state, "lock-wait", state.lock_wait_since, now, status,
                **attrs,
            )
        state.lock_wait_since = None

    def _note(self, agent: Resident, effect: Note) -> None:
        self._emit(
            agent.machine.state, effect.kind, effect.detail, effect.host
        )

    def _lock_won(self, agent: Resident, effect: LockWon) -> None:
        state = agent.machine.state
        # ALT boundary: a re-acquisition after a failed claim overwrites.
        now = state.lock_acquired_at = self.substrate.now()
        state.visits_to_lock = effect.visits
        self._emit(
            state, "lock-won",
            f"{effect.reason} after {effect.visit_events} visits",
        )
        self.substrate.lock_won(agent, effect)
        self._end_lock_wait(
            state, now, visits=effect.visit_events, reason=effect.reason
        )
        if self._obs is not None:
            self._m_visits.observe(effect.visits)

    def _claim_started(self, agent: Resident, effect: ClaimStarted) -> None:
        self.claims[agent.machine.state.batch_id] = agent
        agent.claim_started_at = self.substrate.now()
        agent.claim_path = effect.path

    def _claim_resolved(self, agent: Resident,
                        effect: ClaimResolved) -> None:
        state = agent.machine.state
        self.claims.pop(state.batch_id, None)
        if self._obs is not None:
            self._span(
                state, "claim", agent.claim_started_at,
                self.substrate.now(), effect.outcome, epoch=effect.epoch,
                path=agent.claim_path,
            )
            self._m_claims.inc(outcome=effect.outcome, path=agent.claim_path)
        if effect.outcome != "committed":
            self._emit(
                state, "claim-failed",
                f"epoch {effect.epoch} ({effect.outcome})",
            )

    def _done(self, coordinator: Resident, effect: Done) -> None:
        self.claims.pop(effect.request_id, None)
        self.substrate.done(coordinator, effect)

    def _dispose(self, agent: Resident, effect: Dispose) -> None:
        state = agent.machine.state
        status = effect.status
        self.substrate.disposed(agent, effect)
        if self._obs is None:
            return
        now = self.substrate.now()
        # An aborted journey never won its lock: its wait window closes
        # with the failure status.
        self._end_lock_wait(state, now, status)
        root = agent.root_span or self._obs.tracer.get(state.trace_root)
        if root is not None:
            root.finish(end=now, status=status)
        self._m_requests.inc(len(state.requests), status=status)
        for _request in state.requests:
            self._m_att.observe(now - state.dispatched_at, status=status)
            if status == "committed" and state.lock_acquired_at is not None:
                self._m_alt.observe(
                    state.lock_acquired_at - state.dispatched_at
                )

    # -- replica milestones -------------------------------------------------

    def _granted(self, _agent, effect: Granted) -> None:
        if self._obs is not None:
            if effect.visit:
                self._m_grants.inc(host=self.host, outcome="visit")
            else:
                self._m_grants.inc(host=self.host, outcome="ack")
                if self._sent_at is not None:
                    self._m_grant_latency.observe(
                        self.substrate.now() - self._sent_at, host=self.host
                    )
        self.substrate.emit(
            "grant", effect.agent_id, effect.batch_id,
            Text("epoch %s on visit", effect.epoch) if effect.visit
            else Text("epoch %s", effect.epoch), None,
        )

    def _nacked(self, _agent, effect: Nacked) -> None:
        if self._obs is not None:
            self._m_grants.inc(host=self.host, outcome="nack")
        self.substrate.emit(
            "nack", effect.agent_id, effect.batch_id,
            f"held by {effect.holder}", None,
        )

    def _commit_applied(self, _agent, effect: CommitApplied) -> None:
        if self._obs is not None:
            self._m_applies.inc(host=self.host)
        self.substrate.emit(
            "apply", effect.agent_id, effect.request_id,
            f"{effect.key}=v{effect.version}", None,
        )

    def _recovered(self, _agent, effect: Recovered) -> None:
        self.substrate.emit(
            "recover", None, None, f"snapshot from {effect.src}", None
        )

    def _queue_changed(self, _agent, effect: QueueChanged) -> None:
        if self._obs is not None:
            self._m_ll.set(len(self.replica.locking_list), host=self.host)
