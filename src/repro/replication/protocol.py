"""The DES driver of every protocol, and the paper's :func:`MARP`::

    from repro import Deployment, MARP

    deployment = Deployment(n_replicas=5, seed=42)
    marp = MARP(deployment)
    record = marp.submit_write("s1", "x", 7)
    deployment.run()
    assert record.status == "committed"

MARP and its baselines are rows of :mod:`~repro.core.machines.protocols`
over a shared :class:`~repro.replication.deployment.Deployment`, so
workloads, metrics and consistency audits are protocol-agnostic.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Any, Callable, Dict, List, Optional, Set

from repro.core.machines import (
    AgentMachine, LadderMachine, ReaderMachine, Resident, VotingMachine,
    protocol_row, suitcase_size,
)
from repro.errors import ReplicationError
from repro.net.message import estimate_size
from repro.replication.deployment import Deployment
from repro.replication.requests import (
    READ, WRITE, RequestRecord, Transform, new_request_id,
)

__all__ = ["ReplicationProtocol", "Coordinator", "MARP"]

#: Ms after which a partial batch of writes leaves as an agent (paper
#: §3.2: "after a pre-defined number of requests have been received or
#: periodically").
BATCH_FLUSH_INTERVAL = 100.0


class Coordinator(Resident):
    """A machine as its home host holds it (a MARP agent, a baseline's
    write, a quorum read), with the records it fills in and the driver
    that made it. Random draws come from ``stream``: a baseline's shared
    back-off stream, or an agent's own ``agent.{id}``, derived at its
    first draw (most agents never draw)."""

    def __init__(self, machine, records: List[RequestRecord],
                 protocol: Optional["ReplicationProtocol"], stream=None,
                 requests_size: int = 0) -> None:
        super().__init__(machine)
        self.records = records
        self.protocol = protocol
        self._stream = stream
        #: bytes of an agent's Request List (see :func:`suitcase_size`)
        self.requests_size = requests_size
        #: ``(time, host)`` per arrival of an agent, launch included
        self.travel_log: List = []
        #: the hosts by cost from home (``initial-cost-order``)
        self.plan: Optional[List[str]] = None
        self.disposed = False

    @property
    def stream(self):
        if self._stream is None:
            self._stream = self.protocol.deployment.streams.stream(
                f"agent.{self.agent_id}"
            )
        return self._stream

    #: an agent's carried state (its suitcase, and the claim's), and
    #: what the DES reads of it
    core = property(attrgetter("machine.state"))
    agent_id = property(attrgetter("machine.state.agent_id"))
    table = property(attrgetter("machine.state.table"))
    hops = property(attrgetter("machine.state.hops"))

    def suitcase_size(self) -> int:
        """Bytes an agent's migration charges for what it carries."""
        return suitcase_size(self.machine.state, self.requests_size)

    # -- record keeping (called by the hosting server) ----------------------

    def lock_won(self, effect, now: float) -> None:
        """ALT inputs (overwritten if the claim round fails and the lock
        has to be re-acquired)."""
        for record in self.records:
            record.lock_acquired_at = now
            record.visits_to_lock = effect.visits
            record.extra["visit_events_to_lock"] = effect.visit_events
            record.extra["win_reason"] = effect.reason
            record.extra["parks"] = effect.parks

    def finished(self, effect, now: float) -> None:
        """A coordinator's ``Done`` or an agent's ``Dispose``: the
        records keep what the machine found and take its status."""
        close = _CLOSE.get(self.machine.__class__)
        if close is not None:
            close(self, effect, now)
        for record in self.records:
            record.completed_at = now
            record.status = effect.status


class ReplicationProtocol:
    """The row called ``name`` with ``settings``, on the DES: a
    baseline's participant attached at every server (MARP's is the
    replica), each write a :class:`Coordinator` at its home host (MARP's
    an agent, launched there, in batches above ``batch_size=1``), each
    quorum read one too, and a read without one local. Each request
    runs asynchronously and ends by setting ``record.status``."""

    def __init__(self, deployment: Deployment, name: str,
                 **settings) -> None:
        self.deployment = deployment
        self.env = deployment.env
        self.name = name
        self.row = row = protocol_row(name, deployment.hosts, **settings)
        self.records: List[RequestRecord] = []
        # Streaming mode (enable_streaming): terminal records are swept
        # out of self.records into the sink, so memory stays O(in-flight)
        # instead of O(total requests).
        self._stream_sink = None
        self._sweep_every = 0
        self._since_sweep = 0
        self.swept = 0
        #: MARP's agents in flight (a finished one leaves, see
        #: :meth:`retire_agent`); None for a row whose writes stay home
        self.agents: Optional[List[Coordinator]] = None
        self._retired_hops = 0
        self._buffers: Optional[Dict[str, List[RequestRecord]]] = None
        self._stream = None
        if row.participant is None:
            self.agents = []
            self.itinerary = row.settings["itinerary"]
            self._batch_size = row.settings["batch_size"]
            if self._batch_size > 1:
                self._buffers = {}
                #: homes whose flush timer is armed
                self._flushing: Set[str] = set()
        else:
            for host in deployment.hosts:
                server = deployment.server(host)
                server.attach(row.participant(host, server.machine))
            self._stream = deployment.streams.stream(f"{row.prefix}.backoff")

    # -- submission API (used by clients and examples) ----------------------

    def submit(
        self, home: str, op: str, key: str, value: Any = None
    ) -> RequestRecord:
        """Entry point for one client request (non-blocking)."""
        if home not in self.deployment.servers:
            raise ReplicationError(f"unknown home server {home!r}")
        if op == WRITE:
            return self.submit_write(home, key, value)
        if op == READ:
            return self.submit_read(home, key)
        raise ReplicationError(f"unknown operation {op!r}")

    def submit_write(self, home: str, key: str, value: Any) -> RequestRecord:
        if isinstance(value, Transform) and self.agents is None:
            # Only an agent fetches the freshest committed copy first.
            raise ReplicationError(
                f"{self.name} cannot apply a read-modify-write"
            )
        return self._submit(home, WRITE, key, value)

    def submit_rmw(
        self, home: str, key: str, fn: Callable[[Any], Any],
        description: str = "",
    ) -> RequestRecord:
        """Submit an atomic read-modify-write: ``value = fn(current)``.

        The winning agent fetches the freshest committed copy from its
        acknowledgement quorum before applying ``fn`` ("uses the most
        recent copy", paper §3.1), so concurrent RMWs compose without
        lost updates. A baseline refuses it (``ReplicationError``).
        """
        return self.submit_write(home, key, Transform(fn, description))

    def submit_read(self, home: str, key: str) -> RequestRecord:
        return self._submit(home, READ, key)

    def _submit(self, home: str, op: str, key: str,
                value: Any = None) -> RequestRecord:
        record = RequestRecord(
            request_id=new_request_id(),
            home=home,
            op=op,
            key=key,
            value=value,
            created_at=self.env.now,
        )
        self.records.append(record)
        if op == READ:
            self._read(record)
        elif self._buffers is not None:
            self._buffer(record)
        else:
            self._dispatch(home, [record])
        if self._stream_sink is not None:
            self._maybe_sweep()
        return record

    # -- writes ---------------------------------------------------------------

    def _dispatch(self, home: str, records: List[RequestRecord]) -> None:
        """Start the write of ``records`` at ``home``: MARP's agent
        carrying all of them, or a baseline's coordinator of one."""
        first, now = records[0], self.env.now
        server = self.deployment.server(home)
        for record in records:
            record.dispatched_at = now
        if self.agents is None:
            server.interpreter.coordinate(Coordinator(self.row.write(
                first.request_id, first.key, first.value, home,
            ), records, self, self._stream))
            return
        agent_id = server.id_factory.new(now)
        requests = [(r.request_id, r.key, r.value) for r in records]
        for record in records:
            record.agent_id = str(agent_id)
        agent = Coordinator(self.row.write(
            first.request_id, first.key, first.value, home, agent_id,
            requests,
        ), records, self, requests_size=estimate_size(requests))
        self.agents.append(agent)
        server.launch(agent)

    def _buffer(self, record: RequestRecord) -> None:
        """Buffer one write at its home: the batch leaves when it fills,
        or when the flush timer armed by its first write fires."""
        home = record.home
        buffer = self._buffers.setdefault(home, [])
        buffer.append(record)
        if len(buffer) >= self._batch_size:
            self._flush(home)
        elif home not in self._flushing:
            self._flushing.add(home)
            self.env.call_in(BATCH_FLUSH_INTERVAL, self._flush_timer, home)

    def _flush(self, home: str) -> None:
        records = self._buffers.pop(home, None)
        if records:
            self._dispatch(home, records)

    def _flush_timer(self, home: str) -> None:
        self._flushing.discard(home)
        self._flush(home)

    def retire_agent(self, agent: Coordinator) -> None:
        """A finished agent reports in, right after its records close,
        and leaves the run ("broadcasts COMMIT, disposes").

        Only its hop count is kept. An agent holds its Locking Table and
        a view per known host, so keeping every one would make a run's
        memory grow with its length; to inspect a finished agent, hold a
        reference to it before it finishes, or read the trace.
        """
        self._retired_hops += agent.hops
        self.agents.remove(agent)

    def total_agent_hops(self) -> int:
        """Migrations completed by every agent ever launched."""
        return self._retired_hops + sum(
            agent.hops for agent in self.agents or ()
        )

    # -- reads ----------------------------------------------------------------

    def _read(self, record: RequestRecord) -> None:
        """The row's quorum read, or else a local read: served from the
        home replica's copy once the server's ``read_service_time`` has
        passed — the read-one path (fast, not guaranteed fresh)."""
        record.dispatched_at = self.env.now
        server = self.deployment.server(record.home)
        if self.row.reader is not None:
            server.interpreter.coordinate(Coordinator(self.row.reader(
                record.request_id, record.key, record.home,
            ), [record], self))
            return
        record.extra["read_strategy"] = "local"

        def read(_arg: None = None) -> None:
            entry = server.read(record.key)
            record.value = entry.value if entry is not None else None
            record.extra["version"] = entry.version if entry is not None else 0
            record.completed_at = self.env.now
            record.status = "read-done"

        if server.config.read_service_time > 0:
            self.env.call_in(server.config.read_service_time, read)
        else:
            read()

    # -- streaming accounting -----------------------------------------------

    def enable_streaming(self, sink, sweep_every: int = 4096) -> None:
        """Sweep terminal records into ``sink`` instead of keeping them.

        ``sink`` is any callable taking one terminal
        :class:`RequestRecord` (e.g.
        :meth:`repro.analysis.metrics.StreamingMetrics.observe`); it
        sees each record exactly once, after the record reached a
        terminal status. Every ``sweep_every`` submissions the record
        list is compacted down to the still-pending requests, bounding
        memory by the in-flight population. Call
        :meth:`finalize_streaming` after the run to flush stragglers.
        """
        if sweep_every < 1:
            raise ReplicationError(f"sweep_every must be >= 1: {sweep_every}")
        self._stream_sink = sink
        self._sweep_every = sweep_every
        self._since_sweep = 0

    def _maybe_sweep(self) -> None:
        self._since_sweep += 1
        if self._since_sweep >= self._sweep_every:
            self._sweep()

    def _sweep(self) -> int:
        sink = self._stream_sink
        kept: List[RequestRecord] = []
        swept = 0
        for record in self.records:
            if record.status == "pending":
                kept.append(record)
            else:
                sink(record)
                swept += 1
        self.records = kept
        self.swept += swept
        self._since_sweep = 0
        return swept

    def finalize_streaming(self) -> int:
        """Flush remaining terminal records; returns how many still
        pending (incomplete at horizon — never handed to the sink)."""
        if self._stream_sink is not None:
            self._sweep()
        return len(self.records)

    # -- bookkeeping --------------------------------------------------------------

    def open_requests(self) -> int:
        """Requests submitted but not yet terminal."""
        return sum(1 for r in self.records if r.status == "pending")

    def completed_writes(self) -> List[RequestRecord]:
        return [r for r in self.records if r.op == WRITE and r.status == "committed"]

    def failed_requests(self) -> List[RequestRecord]:
        return [r for r in self.records if r.status == "failed"]

    def run(self, until: Optional[float] = None):
        """Run the underlying simulation."""
        return self.deployment.run(until=until)

    def __repr__(self) -> str:
        return (
            f"<{self.name} requests={len(self.records)} "
            f"open={self.open_requests()}>"
        )


def MARP(deployment: Deployment, **settings) -> ReplicationProtocol:
    """The paper's protocol over ``deployment``: the ``marp`` row with
    ``settings`` (``votes``, ``itinerary``, ``read_strategy``,
    ``batch_size``; see :func:`~repro.core.machines.protocols.marp`)."""
    return ReplicationProtocol(deployment, "marp", **settings)


def _carried(agent: Coordinator, effect, now: float) -> None:
    # RMW records report the final (transformed) value.
    state = agent.machine.state
    for record in agent.records:
        for write in effect.writes:
            if write.request_id == record.request_id:
                record.value = write.value
        record.total_visits = state.visit_events
        record.extra["failed_claims"] = state.failed_claims
    agent.disposed = True
    agent.protocol.retire_agent(agent)


def _voted(coordinator: Coordinator, effect, now: float) -> None:
    machine, record = coordinator.machine, coordinator.records[0]
    if machine.writes:
        record.lock_acquired_at = now
    record.extra["lock_rounds"] = machine.attempt


def _climbed(coordinator: Coordinator, effect, now: float) -> None:
    machine, record = coordinator.machine, coordinator.records[0]
    if machine.writes:
        record.lock_acquired_at = now
        record.extra["available_copies"] = sorted(machine.grants)
    record.extra["skipped"] = machine.skipped


def _read(coordinator: Coordinator, effect, now: float) -> None:
    machine, record = coordinator.machine, coordinator.records[0]
    record.value = machine.value
    record.extra.update(version=machine.version, read_strategy="quorum",
                        replies=len(machine.replied))


#: What a record keeps of what its machine found, by the machine's
#: class (primary copy's forward finds nothing more).
_CLOSE = {
    AgentMachine: _carried, VotingMachine: _voted, LadderMachine: _climbed,
    ReaderMachine: _read,
}
