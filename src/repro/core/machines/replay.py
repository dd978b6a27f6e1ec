"""Deterministic script-replay harness for the protocol machines.

Because the machines are sans-IO, an entire multi-agent, multi-replica
protocol run can be executed with **no** simulator, no threads, no
clocks and no randomness — just a manual event queue under the same
:class:`~repro.core.machines.interpreter.EffectInterpreter` the real
backends run. That is what this module provides:

* :func:`replay` — feed a recorded input script straight into a single
  machine and collect the effect batches it emits. The unit-level tool:
  any interleaving (a COMMIT overtaking an ACK round, a grant expiring
  mid-claim, a park wake racing a release) can be written down as a
  literal list of inputs and asserted on, byte for byte.
* :class:`KernelHarness` — a miniature deterministic world: one
  interpreter per host over N replica machines and any number of agent
  machines, on a priority event queue with fixed hop and message
  latencies. Where the
  DES backend uses seeded randomness (itinerary choice, back-off
  sampling), the harness is deliberately degenerate — lowest-named
  candidate, back-off equal to its mean — so every run is a pure
  function of the submitted workload and fault script.

Beyond replica crash/restart, the harness exposes the fault primitives
the schedule adversary (:mod:`~repro.core.machines.adversary`)
randomizes over, all of them deterministic:

* **partitions** (:meth:`KernelHarness.set_partition` /
  :meth:`KernelHarness.heal_partition`) — messages crossing the cut are
  buffered and delivered after the heal (asynchrony, not loss: the
  paper's model assumes reliable channels between live servers), and an
  agent migrating across the cut receives ``ReplicaDown``;
* **per-message perturbations** (:meth:`KernelHarness.drop_message`,
  :meth:`KernelHarness.duplicate_message`,
  :meth:`KernelHarness.delay_message`) — addressed by the global send
  index, which is well-defined because the harness is deterministic.
  Drops are restricted to :data:`DROPPABLE_KINDS`, the request/response
  traffic the protocol itself retries; COMMIT/ABORT/SYNC propagation is
  reliable in the paper's model and may be delayed or duplicated but
  never silently lost;
* **agent churn** (:meth:`KernelHarness.kill`) — an agent vanishes
  mid-flight, leaving its lock entries and any unreleased grants behind
  (the grant-TTL expiry path exists exactly for this).

Every row of the protocol table runs here
(:mod:`~repro.core.machines.protocols`): :meth:`KernelHarness.attach`
attaches a row's participants at every host, and
:meth:`KernelHarness.coordinate` starts the row's writes
(``row.write(...)``, a MARP agent included) and quorum reads.

The harness is *not* a third execution backend for experiments; it
exists so protocol edge cases and cross-machine races are testable
without booting either real backend.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.core.machines.identity import AgentId
from repro.core.machines.agent import AgentCoreState, AgentMachine
from repro.core.machines.audit import (
    AuditReport, check_histories, commits_of, store_cells,
)
from repro.core.machines.config import DES_TUNABLES
from repro.core.machines.interpreter import (
    EffectInterpreter,
    Resident,
    Substrate,
)
from repro.core.machines.replica import ReplicaMachine

__all__ = [
    "replay",
    "KernelHarness",
    "EventBudgetExceeded",
    "DROPPABLE_KINDS",
    "RELIABLE_KINDS",
]

#: Message kinds a ``drop_message`` directive may actually lose. These
#: are the claim-round request/response messages the protocol retries on
#: its own timers. COMMIT/ABORT (write-all propagation) and the
#: SYNC pair (crash recovery) are reliable in the paper's fault model —
#: losing them silently would manufacture divergence the protocol never
#: claims to survive — so drop directives aimed at them are no-ops.
DROPPABLE_KINDS = frozenset(
    ("UPDATE", "ACK", "NACK", "RELEASE", "READQ", "READR")
)
#: The kinds that fault model makes reliable. The DES network sends
#: them over a reliable channel: a transmission a random link loss drops
#: is retransmitted.
RELIABLE_KINDS = frozenset(("COMMIT", "ABORT", "SYNC_REQUEST", "SYNC_REPLY"))


class EventBudgetExceeded(RuntimeError):
    """The harness hit its ``max_events`` budget before the queue drained.

    Raised (never swallowed) so a livelocked schedule reads as a test
    *failure* rather than a silent truncated pass. Subclasses
    ``RuntimeError`` for backward compatibility with callers that caught
    the old generic error.
    """

    def __init__(self, max_events: int, now: float, pending: int) -> None:
        super().__init__(
            f"harness exceeded {max_events} events at t={now:g} with "
            f"{pending} still queued — livelock?"
        )
        self.max_events = max_events
        self.now = now
        self.pending = pending


def replay(machine, inputs) -> List[List[Any]]:
    """Feed a recorded input script into a machine, batch by batch.

    Returns one effect list per input, in order. Works for both
    :class:`~repro.core.machines.agent.AgentMachine` and
    :class:`~repro.core.machines.replica.ReplicaMachine` (anything with
    an ``on(event)`` method).
    """
    return [list(machine.on(event)) for event in inputs]


class _AgentRun(Resident):
    """One agent of the harness world, with what became of it."""

    def __init__(self, machine: AgentMachine, host: str) -> None:
        super().__init__(machine)
        #: where the agent is (its origin, while a hop is in flight)
        self.host = host
        self.status: Optional[str] = None
        self.writes: Tuple = ()
        #: ``(time, kind, detail)`` per protocol milestone
        self.notes: List[Tuple[float, str, str]] = []


class _Port(Substrate):
    """One host's side of the harness: fixed latencies, the lowest-named
    candidate, a back-off of exactly its mean."""

    def __init__(self, harness: "KernelHarness", host: str) -> None:
        self.harness = harness
        self.host = host

    def now(self) -> float:
        return self.harness.now

    def send(self, dst, kind, payload, category="control") -> None:
        self.harness._deliver_later(dst, kind, payload, src=self.host)

    def broadcast(self, kind, payload) -> None:
        for dst in self.harness.hosts:
            self.harness._deliver_later(dst, kind, payload, src=self.host)

    def set_timer(self, delay, fire) -> None:
        self.harness._schedule(self.harness.now + delay, fire)

    def ship_agent(self, agent, dst) -> None:
        harness = self.harness
        harness._schedule(
            harness.now + harness.hop_latency, harness._land, agent, dst
        )

    def choose(self, agent, candidates) -> str:
        return min(candidates)

    def sample_backoff(self, agent, mean) -> float:
        return mean

    def disposed(self, agent, effect) -> None:
        agent.status = effect.status
        agent.writes = effect.writes
        self.harness.results[agent.machine.state.batch_id] = effect.status

    def done(self, coordinator, effect) -> None:
        self.harness.results[effect.request_id] = effect.status

    def emit(self, kind, agent_id, request_id, detail, host) -> None:
        run = self.harness.agents.get(agent_id)
        if run is not None:
            run.notes.append((self.harness.now, kind, str(detail)))


class KernelHarness:
    """A deterministic world of interpreters wired through one queue.

    Latencies are fixed (``hop_latency`` per migration, ``msg_latency``
    per message) and the back-off "sample" is exactly its mean, so the
    whole run is reproducible from the call sequence alone. Hosts can be
    crashed and restarted (fail-stop: a down replica machine receives
    nothing, and visiting it yields a ``ReplicaDown`` input).
    """

    def __init__(
        self,
        hosts,
        tunables=DES_TUNABLES,
        hop_latency: float = 1.0,
        msg_latency: float = 1.0,
    ) -> None:
        self.hosts = sorted(hosts)
        self.tunables = tunables
        self.hop_latency = hop_latency
        self.msg_latency = msg_latency
        self.replicas: Dict[str, ReplicaMachine] = {
            host: ReplicaMachine(host, self.hosts, tunables)
            for host in self.hosts
        }
        self.interpreters: Dict[str, EffectInterpreter] = {
            host: EffectInterpreter(host, replica, _Port(self, host))
            for host, replica in self.replicas.items()
        }
        self.now = 0.0
        self.agents: Dict[AgentId, _AgentRun] = {}
        self.results: Dict[int, str] = {}
        self._queue: List[Tuple[float, int, Callable, Tuple]] = []
        self._seq = 0
        # -- fault-injection state (all empty => classic behaviour) -----
        self.partition: Optional[Dict[str, int]] = None
        self._partition_buffer: List[Tuple[str, str, Any, str]] = []
        self.msg_index = 0
        self.drop_msgs: Set[int] = set()
        self.dup_msgs: Dict[int, float] = {}
        self.delay_msgs: Dict[int, float] = {}
        self.dropped: List[Tuple[float, str, str, str]] = []
        self.killed: Set[AgentId] = set()
        self.events_processed = 0

    @property
    def down(self) -> Set[str]:
        """The hosts currently crashed."""
        return {
            host for host, interpreter in self.interpreters.items()
            if interpreter.down
        }

    # -- workload & faults ----------------------------------------------

    def submit(
        self,
        home: str,
        request_id: int,
        key: str,
        value: Any,
        at: float = 0.0,
        created_seq: int = 0,
    ) -> AgentId:
        """Create one update agent at ``home``, over the harness's
        tunables; it starts touring at ``at``."""
        machine = AgentMachine(AgentCoreState(
            agent_id=AgentId(home, at, created_seq),
            home=home,
            batch_id=request_id,
            requests=[(request_id, key, value)],
            tour_remaining=set(self.hosts) - {home},
            location=home,
        ), self.hosts, self.tunables)
        self.coordinate(home, machine, at)
        return machine.state.agent_id

    def attach(self, row) -> None:
        """Run ``row``'s participant at every host (a
        :class:`~repro.core.machines.protocols.ProtocolRow` over
        :attr:`hosts`); MARP's is the replica, already there."""
        if row.participant is None:
            return
        for host in self.hosts:
            self.interpreters[host].attach(
                row.participant(host, self.replicas[host])
            )

    def coordinate(self, home: str, machine, at: float = 0.0) -> None:
        """Start a row's write or quorum read at ``home`` at ``at`` (its
        row attached beforehand, :meth:`attach`); its final status
        lands in :attr:`results` under its request id. MARP's write is
        an agent, which tours from there."""
        if isinstance(machine, AgentMachine):
            run = _AgentRun(machine, host=home)
            self.agents[machine.state.agent_id] = run
            self._schedule(at, self._start, run)
        else:
            self._schedule(at, self.interpreters[home].coordinate,
                           Resident(machine))

    def crash(self, host: str, at: Optional[float] = None) -> None:
        if at is None:
            self.interpreters[host].down = True
        else:
            self._schedule(at, self.crash, host)

    def restart(
        self,
        host: str,
        at: Optional[float] = None,
        sync_from: Optional[str] = None,
        atomic: bool = False,
    ) -> None:
        """Bring a crashed replica back, optionally resyncing from a peer.

        ``atomic=True`` models the backends' recovery discipline (the
        server completes its catch-up *before* rejoining): the snapshot
        is pulled synchronously from ``sync_from`` — or, when omitted,
        from the lowest-named live peer — instead of via a SYNC message
        round-trip during which the stale replica could already answer
        claims.
        """
        if at is not None:
            self._schedule(at, self.restart, host, None, sync_from, atomic)
            return
        self.interpreters[host].down = False
        if atomic:
            down = self.down
            peer = sync_from or min(
                (h for h in self.hosts if h not in down and h != host),
                default=None,
            )
            if peer is None:
                return  # no live peer: rejoin on durable state alone
            (reply,) = self.replicas[peer].on_message(
                "SYNC_REQUEST", {}, src=host, now=self.now
            )
            self.interpreters[host].deliver(
                "SYNC_REPLY", reply.payload, src=peer
            )
        elif sync_from is not None:
            self._deliver_later(sync_from, "SYNC_REQUEST", {}, src=host)

    def kill(self, agent_id: AgentId, at: Optional[float] = None) -> None:
        """Remove an agent from the world (mid-flight churn).

        The agent simply vanishes: its lock entries and any grant it
        holds stay behind at the replicas, exactly as when a mobile
        agent's host platform dies. Grant-TTL expiry is what unwedges
        the servers it claimed at.
        """
        if at is not None:
            self._schedule(at, self.kill, agent_id)
            return
        run = self.agents.pop(agent_id, None)
        if run is not None:
            self.killed.add(agent_id)
            self.interpreters[run.host].evict(run)

    def set_partition(self, groups, at: Optional[float] = None) -> None:
        """Split the cluster into ``groups`` (iterables of host names).

        Messages crossing the cut are buffered and delivered after
        :meth:`heal_partition` (reliable-but-asynchronous channels, the
        paper's model); migrations across the cut yield ``ReplicaDown``.
        Hosts named in no group are isolated singletons. A new partition
        replaces the previous one wholesale.
        """
        if at is not None:
            self._schedule(
                at, self.set_partition, tuple(map(tuple, groups))
            )
            return
        mapping: Dict[str, int] = {}
        for index, group in enumerate(groups):
            for host in group:
                if host not in self.replicas:
                    raise ValueError(f"unknown host {host!r} in partition")
                mapping[host] = index
        next_group = len(mapping)
        for host in self.hosts:
            if host not in mapping:
                mapping[host] = next_group
                next_group += 1
        self.partition = mapping

    def heal_partition(self, at: Optional[float] = None) -> None:
        """Remove the partition and deliver every buffered message."""
        if at is not None:
            self._schedule(at, self.heal_partition)
            return
        self.partition = None
        buffered, self._partition_buffer = self._partition_buffer, []
        for dst, kind, payload, src in buffered:
            self._schedule(
                self.now + self.msg_latency,
                self._deliver, dst, kind, payload, src,
            )

    def drop_message(self, nth: int) -> None:
        """Drop the ``nth`` message handed to the network (0-based).

        Only kinds in :data:`DROPPABLE_KINDS` are actually lost; a drop
        directive landing on reliable traffic (COMMIT/ABORT/SYNC) is a
        recorded no-op.
        """
        self.drop_msgs.add(nth)

    def duplicate_message(self, nth: int, extra_delay: float = 0.0) -> None:
        """Deliver the ``nth`` message twice, the copy ``extra_delay`` later."""
        self.dup_msgs[nth] = extra_delay

    def delay_message(self, nth: int, by: float) -> None:
        """Add ``by`` to the ``nth`` message's delivery latency."""
        self.delay_msgs[nth] = by

    def _reachable(self, src: str, dst: str) -> bool:
        if self.partition is None or src == dst:
            return True
        return self.partition.get(src) == self.partition.get(dst)

    # -- event loop -----------------------------------------------------

    def run(self, until: float = 1e9, max_events: int = 100_000) -> float:
        """Drain the event queue up to ``until``; returns the final time.

        Raises :class:`EventBudgetExceeded` when more than ``max_events``
        events fire before the queue drains — a livelocked schedule must
        surface as a failure, never as a silently truncated pass.
        """
        processed = 0
        while self._queue and self._queue[0][0] <= until:
            processed += 1
            self.events_processed += 1
            if processed > max_events:
                raise EventBudgetExceeded(
                    max_events, self.now, len(self._queue)
                )
            when, _seq, action, args = heapq.heappop(self._queue)
            self.now = when
            action(*args)
        return self.now

    def _schedule(self, when: float, action: Callable, *args) -> None:
        self._seq += 1
        heapq.heappush(self._queue, (when, self._seq, action, args))

    def _deliver_later(
        self, dst: str, kind: str, payload: Any, src: str
    ) -> None:
        index = self.msg_index
        self.msg_index += 1
        if index in self.drop_msgs and kind in DROPPABLE_KINDS:
            self.dropped.append((self.now, src, dst, kind))
            return
        if not self._reachable(src, dst):
            self._partition_buffer.append((dst, kind, payload, src))
            return
        latency = self.msg_latency + self.delay_msgs.get(index, 0.0)
        self._schedule(
            self.now + latency, self._deliver, dst, kind, payload, src
        )
        if index in self.dup_msgs:
            self._schedule(
                self.now + latency + self.dup_msgs[index],
                self._deliver, dst, kind, payload, src,
            )

    def _deliver(self, dst: str, kind: str, payload: Any, src: str) -> None:
        self.interpreters[dst].deliver(kind, payload, src)

    # -- agents on the move -----------------------------------------------

    def _start(self, run: _AgentRun) -> None:
        if run.machine.state.agent_id in self.agents:
            self.interpreters[run.host].launch(run)

    def _land(self, run: _AgentRun, dst: str) -> None:
        """A hop ends: at ``dst``, or back at the origin if ``dst`` is
        down or across a partition cut."""
        if run.machine.state.agent_id not in self.agents:
            return  # killed in flight
        if self.interpreters[dst].down or not self._reachable(run.host, dst):
            self.interpreters[run.host].unreachable(run, dst)
        else:
            run.host = dst
            self.interpreters[dst].arrived(run)

    # -- inspection --------------------------------------------------------

    def audit(self) -> AuditReport:
        """The kernel's consistency checker over every replica's history
        and store, with each request's final status."""
        replicas = self.replicas.items()
        return check_histories(
            {host: commits_of(r.history) for host, r in replicas},
            {host: store_cells(r.store) for host, r in replicas},
            statuses=self.results,
        )

    def commit_chains(self) -> Dict[str, List[Tuple[int, Any]]]:
        """Per-key ``[(version, value), ...]`` from the union of histories."""
        chains: Dict[str, Dict[int, Any]] = {}
        for replica in self.replicas.values():
            for record in replica.history:
                chains.setdefault(record.key, {})[record.version] = (
                    record.value
                )
        return {
            key: sorted(versions.items())
            for key, versions in chains.items()
        }

    def statuses(self) -> Dict[int, str]:
        return dict(self.results)
