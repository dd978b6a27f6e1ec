"""The replicated server — the DES substrate of one host.

All protocol *logic* lives in the sans-IO machines and all effect
*interpretation* in :class:`~repro.core.machines.interpreter.EffectInterpreter`;
this class is the discrete-event :class:`Substrate` under one host's
interpreter. It supplies only what a simulated host is made of:

* the clock (``env.now``) and the network endpoint: sends, the
  single-server queue that serialises UPDATE and COMMIT processing
  behind ``update_apply_time`` (and one such queue for a baseline's
  participant, :meth:`ReplicaServer.attach`), and the replies to claims
  and coordinators, which the endpoint pushes at the interpreter as
  they arrive (what the live transport does);
* timers as heap callbacks (``env.call_in``) for visits, back-off,
  claim-round deadlines and parks (a release wakes the parked agent in
  a step of its own);
* agent shipping with the paper's §2 failure policy: an attempt that
  does not complete within :data:`MIGRATION_TIMEOUT` is retried, and
  after :data:`MAX_ATTEMPTS` the destination is declared unavailable
  for the round;
* the itinerary policy (:meth:`ReplicaServer.choose`, selected by the
  MARP row's ``itinerary``), the visiting agent's own randomness
  (random itinerary choice, back-off draw) and the protocol trace.

Visiting agents interact with the server **locally** ("taking the
advantage of being in the same site as the peer process"): the
interpreter calls the co-located :class:`ReplicaMachine` directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.errors import MigrationError, ProtocolError
from repro.core.machines.config import DES_TUNABLES
from repro.core.machines.identity import AgentIdFactory
from repro.core.machines.interpreter import (
    AGENT_BOUND, EffectInterpreter, Substrate,
)
from repro.core.machines.replica import HANDLED_KINDS, ReplicaMachine
from repro.core.machines.wire import SharedView, UpdatePayload, WriteOp
from repro.net.message import HEADER_BYTES, Message, estimate_size
from repro.net.network import Endpoint, Network
from repro.sim.core import Environment

__all__ = [
    "ReplicaServer", "ReplicaConfig", "SharedView", "UpdatePayload",
    "WriteOp",
]

# Paper §2: "If a mobile agent cannot migrate ... after certain amount of
# time, the protocol assumes that the replica process at the host has
# temporarily failed ... After certain number of such unsuccessful
# attempts, the protocol declares the replica unavailable."
#: Ms after which an in-flight migration is presumed failed.
MIGRATION_TIMEOUT = 500.0
#: Attempts before the destination is declared unavailable.
MAX_ATTEMPTS = 3
#: Extra ms between attempts, multiplied by the attempt number.
RETRY_BACKOFF = 50.0
#: Fixed bytes of a shipped agent's code + runtime envelope (the Aglets
#: prototype shipped Java bytecode with each aglet).
BASE_BYTES = 2048
#: Multiplier on the carried-state estimate (headers, type tags).
SERIALIZATION_OVERHEAD = 1.2


def _call(fire) -> None:
    """Heap action of a substrate timer (``fire`` takes no argument)."""
    fire()


class _Interpreter(EffectInterpreter):
    """The DES host's interpreter: down exactly while the network's
    fault plan has the host crashed, windows added after construction
    included. A crashed host thus does no local exchange either — a
    visit there yields ``ReplicaDown`` — and an agent cannot commit
    from it on grants taken there."""

    @property
    def down(self) -> bool:
        return not self.substrate.network.host_up(self.host)


@dataclass
class ReplicaConfig:
    """Tunables of a replica server.

    The protocol-level fields (``enable_bulletin``, ``grant_ttl``)
    default to the kernel's :data:`~repro.core.machines.config.DES_TUNABLES`
    and are read by the :class:`ReplicaMachine` directly (this dataclass
    *is* the machine's tunables object); the service-time fields are
    DES-only costs charged by this substrate.

    Attributes
    ----------
    agent_service_time:
        Milliseconds a visiting agent spends interacting with the server
        (lock request + information exchange). The paper's ALT is
        "average number of server sites visited times the average time a
        mobile agent spent at a server".
    update_apply_time:
        Local processing time for applying an UPDATE before ACKing.
    enable_bulletin:
        Paper §3.1: agents "exchange their locking information by leaving
        the information at the servers they visited". Off for the A2
        ablation.
    recover_on_restart:
        Run the post-crash resynchronisation process.
    grant_ttl:
        Ms after which an unreleased update grant expires. A grant is
        the server-side exclusive promise behind an UPDATE
        acknowledgement; the TTL only exists so a claimer that crashed
        mid-claim cannot wedge the server forever. It must comfortably
        exceed any realistic claim round (ack gathering + commit
        propagation).
    """

    agent_service_time: float = 2.0
    update_apply_time: float = 0.5
    read_service_time: float = 0.5
    enable_bulletin: bool = DES_TUNABLES.enable_bulletin
    recover_on_restart: bool = True
    grant_ttl: float = DES_TUNABLES.grant_ttl


class ReplicaServer(Substrate):
    """One simulated host: replica machine, interpreter, endpoint.

    ``servers`` is the deployment's host → server map (shared, filled as
    the cluster is built): shipping an agent hands it to the destination
    server's interpreter. ``obs`` is an enabled hub or ``None``.
    """

    def __init__(
        self,
        env: Environment,
        host: str,
        endpoint: Endpoint,
        network: Network,
        peers: List[str],
        config: Optional[ReplicaConfig] = None,
        servers: Optional[Dict[str, "ReplicaServer"]] = None,
        obs=None,
    ) -> None:
        if host not in peers:
            raise ProtocolError(f"peers list must include the host {host!r}")
        self.env = env
        self.host = host
        self.endpoint = endpoint
        self.network = network
        self.peers = list(peers)
        self.config = config or ReplicaConfig()
        self.servers = servers if servers is not None else {host: self}
        #: the sans-IO protocol kernel; the config doubles as tunables
        self.machine = ReplicaMachine(host, self.peers, self.config)
        self.interpreter = _Interpreter(
            host, self.machine, self, obs=obs, backend="des"
        )
        #: optional ProtocolTrace, injected by Deployment.enable_tracing
        self.trace = None
        self.id_factory = AgentIdFactory(host)
        self.migrations_out = 0
        self.migrations_failed = 0
        #: the payload :meth:`send` sized last, and its size
        self._sized: object = None
        self._size = 0

        # The replica takes every kind it handles one at a time, in
        # arrival order across kinds.
        endpoint.serve(HANDLED_KINDS, self._service_time, self._handle)
        # Replies to a claim or a quorum read from here wait for nothing.
        endpoint.serve(AGENT_BOUND, None, self._handle)

    # ------------------------------------------------------------------
    # Machine state and the local interface (visiting agents go through
    # the interpreter)
    # ------------------------------------------------------------------

    @property
    def store(self):
        return self.machine.store

    @property
    def locking_list(self):
        return self.machine.locking_list

    @property
    def updated_list(self):
        return self.machine.updated_list

    @property
    def history(self):
        return self.machine.history

    @property
    def commits_applied(self) -> int:
        return self.machine.commits_applied

    @property
    def recoveries(self) -> int:
        return self.machine.recoveries

    def read(self, key: str):
        """Local read — the paper's fast read path (not guaranteed fresh)."""
        return self.machine.read(key)

    def request_sync(self, peer: str) -> None:
        """Ask ``peer`` for a store snapshot (post-crash catch-up)."""
        self.endpoint.send(peer, "SYNC_REQUEST", payload={})

    # ------------------------------------------------------------------
    # Message handling (Algorithm 2's message clauses)
    # ------------------------------------------------------------------

    def _service_time(self, msg: Message) -> float:
        if msg.kind in ("UPDATE", "COMMIT"):
            return self.config.update_apply_time
        return 0.0

    def _handle(self, msg: Message) -> None:
        self.interpreter.deliver(msg.kind, msg.payload, msg.src, msg.sent_at)

    def _apply_time(self, _msg: Message) -> float:
        return self.config.update_apply_time

    def attach(self, participant) -> None:
        """Host a baseline's participant: its kinds one at a time, each
        behind ``update_apply_time``, in one queue of their own; the
        replies to its protocol's coordinators in no time."""
        self.interpreter.attach(participant)
        self.endpoint.serve(tuple(participant.kinds), self._apply_time,
                            self._handle)
        self.endpoint.serve(participant.reply_kinds, None, self._handle)

    # ------------------------------------------------------------------
    # Agents
    # ------------------------------------------------------------------

    def launch(self, agent) -> None:
        """Start a freshly created agent here. Its first step runs in
        the urgent tier: after the creating step, before every ordinary
        event of the instant."""
        agent.travel_log.append((self.env.now, self.host))
        self.env.call_urgent(self.interpreter.launch, agent)

    def ship_agent(self, agent, dst: str) -> None:
        """Ship ``agent`` to ``dst`` under the §2 migration policy."""
        size = int(BASE_BYTES + SERIALIZATION_OVERHEAD * agent.suitcase_size())
        self._attempt(agent, dst, size, 1)

    def _attempt(self, agent, dst: str, size: int, attempt: int) -> None:
        """Migration attempt number ``attempt``; a failed one is retried
        after a back-off until :data:`MAX_ATTEMPTS` have failed."""
        self.migrations_out += 1

        def landed(failure: Optional[MigrationError]) -> None:
            if failure is None:
                agent.travel_log.append((self.env.now, dst))
                self.servers[dst].interpreter.arrived(agent)
                return
            self.migrations_failed += 1
            if attempt < MAX_ATTEMPTS:
                self.env.call_in(
                    RETRY_BACKOFF * attempt,
                    lambda _arg: self._attempt(agent, dst, size, attempt + 1),
                )
            else:
                self.interpreter.unreachable(agent, dst)

        self.network.attempt_transfer(
            self.host, dst, size, MIGRATION_TIMEOUT, landed, kind="AGENT"
        )

    # ------------------------------------------------------------------
    # Substrate: clock, transport, timers, randomness, trace
    # ------------------------------------------------------------------

    def now(self) -> float:
        return self.env.now

    def send(self, dst, kind, payload, category) -> None:
        # Sends of one payload in a row (a primary's write to each
        # backup) are sized once, as a multicast sizes its copies.
        if payload is not self._sized:
            self._sized = payload
            self._size = HEADER_BYTES + estimate_size(payload)
        self.endpoint.send(dst, kind, payload, category, self._size)

    def broadcast(self, kind, payload) -> None:
        self.endpoint.broadcast(kind, payload, include_self=True)

    def set_timer(self, delay, fire) -> None:
        self.env.call_in(delay, _call, fire)

    def park(self, timeout, fire):
        # Whichever of the timeout and the release comes second finds
        # the interpreter's timer spent and does nothing. A release
        # wakes the agent in a step of its own, after the releasing one.
        self.set_timer(timeout, fire)
        return lambda: self.set_timer(0.0, fire)

    def visit_cost(self) -> float:
        return self.config.agent_service_time

    def choose(self, agent, candidates) -> str:
        """The itinerary policy, by the MARP row's ``itinerary``: the
        paper's cheapest candidate from *here* (``cost-sorted``,
        re-evaluated at every hop), or for the A1 ablation a tour sorted
        once by cost from home, name order, or a uniform draw."""
        itinerary = agent.protocol.itinerary
        if itinerary == "cost-sorted":
            return self.network.topology.nearest(self.host, candidates)
        if itinerary == "static-order":
            return min(candidates)
        if itinerary == "random-order":
            return agent.stream.choice(sorted(candidates))
        if agent.plan is None:
            agent.plan = self.network.topology.neighbors_by_cost(
                agent.machine.state.home, candidates
            )
        return next(
            (host for host in agent.plan if host in candidates),
            min(candidates),
        )

    def sample_backoff(self, agent, mean) -> float:
        return agent.stream.exponential(mean)

    def lock_won(self, agent, effect) -> None:
        agent.lock_won(effect, self.env.now)

    def disposed(self, agent, effect) -> None:
        agent.finished(effect, self.env.now)

    def done(self, coordinator, effect) -> None:
        coordinator.finished(effect, self.env.now)

    def emit(self, kind, agent_id, request_id, detail, host) -> None:
        if self.trace is not None:
            self.trace.record(
                self.env.now, kind,
                host=host if host is not None else self.host,
                agent=str(agent_id) if agent_id is not None else None,
                request_id=request_id, detail=str(detail),
            )

    def __repr__(self) -> str:
        return (
            f"<ReplicaServer {self.host!r} ll={len(self.locking_list)} "
            f"ul={len(self.updated_list)} commits={self.commits_applied}>"
        )
