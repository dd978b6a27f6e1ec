"""The update mobile agent — the DES driver for the paper's Algorithm 1.

The protocol *logic* — touring, priority evaluation, parking ([D2]), the
claim round and version assignment ([D3]) — lives in the sans-IO
:class:`~repro.core.machines.agent.AgentMachine`. This class is the
discrete-event **driver** around it: it owns everything the kernel is
not allowed to touch —

* the simulation clock and the agent platform (migration, service-time
  and back-off timeouts, message receive events);
* the itinerary policy and its random stream (a ``Migrate(candidates)``
  effect comes back from the kernel; the driver picks the destination);
* request-record bookkeeping, protocol tracing, and observability spans
  and metrics.

Its interpretation loop is flat: perform each effect of the current
batch (some perform steps yield simulation events — a migration, a park
wait, an exponential back-off), feed the resulting input back into the
machine, and repeat until a ``Dispose`` effect ends the agent. When a
batch leaves the machine :attr:`~AgentMachine.awaiting` claim replies,
the driver blocks on one ACK/NACK/READR receive (or the pending timer)
and feeds whichever fires first.
"""

from __future__ import annotations

from collections import deque
from operator import itemgetter
from typing import TYPE_CHECKING, Any, Dict, List, Optional

from repro.errors import ProtocolError, ReplicaUnavailable
from repro.agents.agent import MobileAgent
from repro.agents.identity import AgentId
from repro.agents.itinerary import make_itinerary
from repro.core.machines.agent import AgentCoreState, AgentMachine
from repro.core.machines.effects import (
    Backoff,
    Broadcast,
    CancelTimer,
    ClaimResolved,
    ClaimStarted,
    Dispose,
    LockWon,
    Migrate,
    Note,
    Park,
    PostBulletin,
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
from repro.core.machines.table import LockingTable
from repro.replication.server import ReplicaServer
from repro.replication.requests import RequestRecord

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.protocol import MARP

__all__ = ["UpdateAgent", "CLAIM_REPLIES", "route_replies"]

#: The claim round's replies share one inbox queue per ``(batch_id,
#: epoch)``: a round reads its own ACK/NACKs in arrival order and never
#: meets those of an abandoned epoch or of another agent at this host.
CLAIM_REPLIES = ("ACK", "NACK")
_CLAIM_KEY = itemgetter("batch_id", "epoch")
_READ_KEY = itemgetter("request_id")


def route_replies(network) -> None:
    """Declare how the replies MARP's agents and readers wait for are
    filed in every inbox (see :meth:`Network.route`)."""
    network.route(CLAIM_REPLIES, key=_CLAIM_KEY)
    network.route(("READR",), key=_READ_KEY)


class UpdateAgent(MobileAgent):
    """Carries a batch of update requests to a majority consensus."""

    def __init__(
        self,
        agent_id: AgentId,
        marp: "MARP",
        records: List[RequestRecord],
    ) -> None:
        if not records:
            raise ValueError("an update agent needs at least one request")
        super().__init__(agent_id)
        self.marp = marp
        self.config = marp.config
        self.records = list(records)
        self.batch_id = self.records[0].request_id
        #: the carried protocol state + the sans-IO kernel over it
        self.core = AgentCoreState(
            agent_id=agent_id,
            home=self.home,
            batch_id=self.batch_id,
            requests=[(r.request_id, r.key, r.value) for r in self.records],
        )
        self.machine = AgentMachine(
            self.core, marp.deployment.hosts, self.config, votes=marp.votes
        )
        self.itinerary = make_itinerary(self.config.itinerary, home=self.home)
        self.stream = marp.deployment.streams.stream(f"agent.{agent_id}")
        self._finished = False
        #: the live claim-round deadline (an env.timeout event), if any
        self._deadline = None
        self._deadline_kind: Optional[str] = None

        # Observability: resolve the deployment's hub once; every record
        # below is guarded by a single `is not None` check, so a run
        # without a hub pays nothing.
        obs = marp.deployment.obs
        self._obs = obs
        self._span_request = None
        self._span_lockwait = None
        self._span_claim = None
        if obs is not None:
            self._m_requests = obs.counter(
                "marp_requests_total", "update requests finished",
                ("status",),
            )
            self._m_claims = obs.counter(
                "marp_claims_total", "claim rounds", ("outcome",)
            )
            self._m_migrations = obs.counter(
                "marp_migrations_total", "agent migrations", ("outcome",)
            )
            self._m_parks = obs.counter(
                "marp_parks_total", "agents parked awaiting release",
                ("host",),
            )
            self._m_alt = obs.histogram(
                "marp_alt_ms", "per-request lock time (the paper's ALT)"
            )
            self._m_att = obs.histogram(
                "marp_att_ms", "per-request total time (the paper's ATT)",
                ("status",),
            )
            self._m_visits = obs.histogram(
                "marp_visits_to_lock",
                "distinct servers visited to win the lock",
                buckets=(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 15, 20),
            )

    # -- carried protocol state, exposed for tests/analysis ------------------

    @property
    def table(self) -> LockingTable:
        return self.core.table

    @property
    def visited(self):
        return self.core.visited

    @property
    def tour_remaining(self):
        return self.core.tour_remaining

    @property
    def unavailable(self):
        return self.core.unavailable

    @property
    def visit_events(self) -> int:
        return self.core.visit_events

    @property
    def park_count(self) -> int:
        return self.core.park_count

    @property
    def claim_epoch(self) -> int:
        return self.core.epoch

    @property
    def failed_claims(self) -> int:
        return self.core.failed_claims

    # -- carried state (sizes migrations) ------------------------------------

    def state(self) -> Dict[str, Any]:
        return {
            "agent_id": self.agent_id,
            "requests": [
                (r.request_id, r.key, r.value) for r in self.records
            ],
            "unvisited": sorted(self.core.tour_remaining),
            "table": self.core.table,  # has wire_size()
        }

    # -- tracing ----------------------------------------------------------------

    def _trace(self, kind: str, host: Optional[str] = None,
               detail: str = "") -> None:
        trace = self.marp.deployment.trace
        if trace is not None:
            trace.record(
                self.marp.env.now, kind,
                host=host if host is not None else self.location,
                agent=str(self.agent_id), request_id=self.batch_id,
                detail=detail,
            )

    # -- the interpretation loop ---------------------------------------------

    def behavior(self):
        env = self.platform.env
        now = env.now
        for record in self.records:
            record.dispatched_at = now
            record.agent_id = str(self.agent_id)
        self._trace("dispatch", detail=f"{len(self.records)} request(s)")
        # The causal trace context travels in the kernel state (and so in
        # every payload the machine emits), whether or not a hub records.
        self.core.trace_id = str(self.agent_id)
        if self._obs is not None:
            self._span_request = self._obs.start_span(
                "request", start=now, agent=str(self.agent_id),
                host=self.home, batch_id=self.batch_id, protocol="marp",
                trace_id=self.core.trace_id, backend="des",
            )
            self.core.trace_root = self._span_request.span_id
            self._span_lockwait = self._obs.start_span(
                "lock-wait", parent=self._span_request, start=now,
                agent=str(self.agent_id), trace_id=self.core.trace_id,
            )

        self.core.tour_remaining = (
            set(self.marp.deployment.hosts) - {self.home}
        )

        # The creating server is the first visit (no migration needed).
        queue = deque((yield from self._visit_current()))
        while not self._finished:
            if not queue:
                # The batch left the machine blocked on claim replies.
                queue.extend((yield from self._await_reply()))
                continue
            queue.extend((yield from self._perform(queue.popleft())))

    def _perform(self, effect):
        """Perform one effect; returns the follow-up batch (usually [])."""
        env = self.platform.env
        if isinstance(effect, Note):
            self._trace(effect.kind, host=effect.host, detail=effect.detail)
        elif isinstance(effect, PostBulletin):
            self.platform.service("replica").post_bulletin(effect.views)
        elif isinstance(effect, Migrate):
            return (yield from self._migrate_step(effect.candidates))
        elif isinstance(effect, Visit):
            return (yield from self._visit_current())
        elif isinstance(effect, Park):
            return (yield from self._park(effect.timeout))
        elif isinstance(effect, Backoff):
            return (yield from self._backoff(effect.mean))
        elif isinstance(effect, LockWon):
            self._on_lock_won(effect)
        elif isinstance(effect, ClaimStarted):
            if self._obs is not None:
                self._span_claim = self._obs.start_span(
                    "claim", parent=self._span_request, start=env.now,
                    agent=str(self.agent_id), epoch=effect.epoch,
                    trace_id=self.core.trace_id,
                )
        elif isinstance(effect, ClaimResolved):
            if self._obs is not None and self._span_claim is not None:
                self._span_claim.finish(end=env.now, status=effect.outcome)
                self._m_claims.inc(outcome=effect.outcome)
                self._span_claim = None
            if effect.outcome != "committed":
                self._trace(
                    "claim-failed",
                    detail=f"epoch {effect.epoch} ({effect.outcome})",
                )
        elif isinstance(effect, Broadcast):
            self.platform.endpoint.broadcast(
                effect.kind, effect.payload, include_self=True
            )
        elif isinstance(effect, Send):
            self.platform.endpoint.send(
                effect.dst, effect.kind, payload=effect.payload
            )
        elif isinstance(effect, SetTimer):
            self._deadline = env.timeout(effect.delay)
            self._deadline_kind = effect.kind
        elif isinstance(effect, CancelTimer):
            if self._deadline_kind == effect.kind:
                self._deadline = None
                self._deadline_kind = None
        elif isinstance(effect, Dispose):
            self._on_dispose(effect)
        return []

    # -- visiting -----------------------------------------------------------------

    def _visit_current(self):
        """Interact with the co-located replica server (one 'visit')."""
        env = self.platform.env
        server: ReplicaServer = self.platform.service("replica")
        if server.config.agent_service_time > 0:
            yield env.timeout(server.config.agent_service_time)
        data = server.begin_visit(
            self.agent_id, self.batch_id,
            acked=self.core.table.acked_seq(server.host),
        )
        return self.machine.on(
            Arrived(
                host=server.host, now=env.now, view=data.view,
                bulletin=data.bulletin, rank=data.rank, ll_len=data.ll_len,
            )
        )

    # -- movement -------------------------------------------------------------

    def _migrate_step(self, candidates):
        env = self.platform.env
        dst = self.itinerary.next_host(
            self.location, candidates, self.marp.deployment.topology,
            self.stream,
        )
        self._trace("migrate", detail=f"-> {dst}")
        hop_span = None
        if self._obs is not None:
            hop_span = self._obs.start_span(
                "migrate", parent=self._span_request, start=env.now,
                agent=str(self.agent_id), src=self.location, dst=dst,
                trace_id=self.core.trace_id,
            )
        try:
            yield from self.migrate(dst)
        except ReplicaUnavailable:
            if hop_span is not None:
                hop_span.finish(end=env.now, status="unavailable")
                self._m_migrations.inc(outcome="unavailable")
            return self.machine.on(ReplicaDown(dst, env.now))
        if hop_span is not None:
            hop_span.finish(end=env.now)
            self._m_migrations.inc(outcome="ok")
        self._trace("arrive")
        return (yield from self._visit_current())

    def _park(self, timeout: float):
        """Park at the current server until a release or a timeout ([D2])."""
        env = self.platform.env
        park_span = None
        if self._obs is not None:
            self._m_parks.inc(host=self.location)
            park_span = self._obs.start_span(
                "park", parent=self._span_request, start=env.now,
                agent=str(self.agent_id), host=self.location,
                trace_id=self.core.trace_id,
            )
        server: ReplicaServer = self.platform.service("replica")
        release = server.wait_release()
        yield release | env.timeout(timeout)
        if park_span is not None:
            park_span.finish(end=env.now)
        self._trace("wake")
        return (yield from self._visit_current())

    def _backoff(self, mean: float):
        """Randomized wait before re-entering the acquisition loop."""
        env = self.platform.env
        if self._obs is not None:
            # The lock has to be re-acquired: open a fresh wait span.
            self._span_lockwait = self._obs.start_span(
                "lock-wait", parent=self._span_request, start=env.now,
                agent=str(self.agent_id), trace_id=self.core.trace_id,
            )
        if mean > 0:
            yield env.timeout(self.stream.exponential(mean))
        return self.machine.on(TimerFired("backoff", env.now))

    # -- the claim round (UPDATE / ACK / COMMIT) ------------------------------------

    def _await_reply(self):
        """Block on the next claim-round reply or the pending deadline."""
        env = self.platform.env
        endpoint = self.platform.endpoint
        awaiting = self.machine.awaiting
        if awaiting == "acks":
            reply = endpoint.receive(
                CLAIM_REPLIES, key=(self.batch_id, self.core.epoch)
            )
        elif awaiting == "fetch":
            reply = endpoint.receive(
                "READR",
                key=(self.batch_id, self.core.epoch, self.core.fetch_key),
            )
        else:  # pragma: no cover - kernel contract violation
            raise ProtocolError(
                f"agent machine stalled (awaiting={awaiting!r})"
            )
        yield reply | self._deadline
        if not reply.processed:
            # The deadline fired; withdraw the pending receive so it
            # cannot swallow a message meant for a later epoch check.
            reply.cancel()
            fired, self._deadline = self._deadline_kind, None
            self._deadline_kind = None
            return self.machine.on(TimerFired(fired, env.now))
        msg = reply.value
        return self.machine.on(
            MsgReceived(msg.kind, msg.payload, env.now, src=msg.src)
        )

    # -- completion -----------------------------------------------------------

    def _on_lock_won(self, effect: LockWon) -> None:
        """Record ALT inputs (overwritten if the claim round fails and
        the lock has to be re-acquired)."""
        now = self.platform.env.now
        self._trace(
            "lock-won",
            detail=f"{effect.reason} after {effect.visit_events} visits",
        )
        for record in self.records:
            record.lock_acquired_at = now
            record.visits_to_lock = effect.visits
            record.extra["visit_events_to_lock"] = effect.visit_events
            record.extra["win_reason"] = effect.reason
            record.extra["parks"] = effect.parks
        if self._obs is not None and self._span_lockwait is not None:
            self._span_lockwait.finish(
                end=now, visits=effect.visit_events, reason=effect.reason,
            )
            self._span_lockwait = None
            self._m_visits.observe(effect.visits)

    def _on_dispose(self, effect: Dispose) -> None:
        # RMW records report the final (transformed) value.
        by_id = {w.request_id: w for w in effect.writes}
        for record in self.records:
            write = by_id.get(record.request_id)
            if write is not None:
                record.value = write.value
        self._finish(effect.status)

    def _finish(self, status: str) -> None:
        self._finished = True
        now = self.platform.env.now
        for record in self.records:
            record.completed_at = now
            record.total_visits = self.core.visit_events
            record.extra["failed_claims"] = self.core.failed_claims
            record.status = status
        if self._obs is not None:
            if self._span_lockwait is not None:
                self._span_lockwait.finish(end=now, status=status)
                self._span_lockwait = None
            if self._span_request is not None:
                self._span_request.finish(end=now, status=status)
            self._m_requests.inc(len(self.records), status=status)
            for record in self.records:
                if record.total_time is not None:
                    self._m_att.observe(record.total_time, status=status)
                if status == "committed" and record.lock_time is not None:
                    self._m_alt.observe(record.lock_time)
        self.dispose()
        self.marp.retire_agent(self)
