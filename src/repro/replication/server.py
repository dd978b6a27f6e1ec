"""The replicated server — the DES driver for the paper's Algorithm 2.

All protocol *logic* lives in the sans-IO
:class:`~repro.core.machines.replica.ReplicaMachine`; this class is the
discrete-event **driver** around it: it owns the simulation process, the
network endpoint, tracing, observability, and the release-waiter events
parked agents block on. Every machine effect is translated into exactly
one driver action:

* ``Send`` → :meth:`Endpoint.send`;
* ``Granted`` / ``Nacked`` / ``CommitApplied`` / ``Recovered`` → the
  grant/apply counters' metrics and the protocol trace;
* ``QueueChanged`` → Locking-List gauge/monitor refresh;
* ``ReleaseNotify`` → wake agents parked at this server ([D2]).

Visiting mobile agents still interact with the server **locally**
(direct method calls — "taking the advantage of being in the same site
as the peer process"); those calls delegate to the machine's local
interface. Servers also run an optional recovery process: after each
crash window (fail-stop with recovery, §2) they resynchronise their
store from a live peer via SYNC messages.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.errors import ProtocolError
from repro.agents.identity import AgentId
from repro.core.machines.effects import (
    CommitApplied,
    Granted,
    Nacked,
    QueueChanged,
    Recovered,
    ReleaseNotify,
    Send,
)
from repro.core.machines.config import DES_TUNABLES
from repro.core.machines.replica import ReplicaMachine
from repro.core.machines.wire import (
    SharedView,
    UpdatePayload,
    VisitData,
    WriteOp,
)
from repro.net.message import Message
from repro.net.network import Endpoint, Network
from repro.sim.core import Environment
from repro.sim.events import Event

__all__ = ["ReplicaServer", "ReplicaConfig", "SharedView", "UpdatePayload"]


@dataclass
class ReplicaConfig:
    """Tunables of a replica server.

    The protocol-level fields (``enable_bulletin``, ``grant_ttl``)
    default to the kernel's :data:`~repro.core.machines.config.DES_TUNABLES`
    and are read by the :class:`ReplicaMachine` directly (this dataclass
    *is* the machine's tunables object); the service-time fields are
    DES-only costs charged by this driver.

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


class ReplicaServer:
    """DES driver around a :class:`ReplicaMachine` (Algorithm 2)."""

    def __init__(
        self,
        env: Environment,
        host: str,
        endpoint: Endpoint,
        network: Network,
        peers: List[str],
        config: Optional[ReplicaConfig] = None,
    ) -> None:
        if host not in peers:
            raise ProtocolError(f"peers list must include the host {host!r}")
        self.env = env
        self.host = host
        self.endpoint = endpoint
        self.network = network
        self.peers = list(peers)
        self.config = config or ReplicaConfig()
        #: the sans-IO protocol kernel; the config doubles as tunables
        self.machine = ReplicaMachine(host, self.peers, self.config)

        self._release_waiters: List[Event] = []
        #: optional ProtocolTrace, injected by Deployment.enable_tracing
        self.trace = None
        #: optional StateMonitor of the Locking List length, injected by
        #: Deployment.enable_queue_monitoring
        self.queue_monitor = None
        #: optional ObservabilityHub, injected by the deployment
        self._obs = None

        # One inbox queue for every kind the loop handles: it takes them
        # in arrival order across kinds by popping that queue's head.
        network.route(self._HANDLED_KINDS)
        self._loop_process = env.process(
            self._message_loop(), name=f"replica-loop-{host}"
        )

    # ------------------------------------------------------------------
    # Machine state, exposed for drivers/tests/analysis
    # ------------------------------------------------------------------

    @property
    def n_replicas(self) -> int:
        return len(self.peers)

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
    def bulletin(self) -> Dict[str, SharedView]:
        return self.machine.bulletin

    @property
    def _pending_updates(self) -> Dict[int, UpdatePayload]:
        return self.machine.pending_updates

    @property
    def _grant_holder(self) -> Optional[AgentId]:
        return self.machine.grant_holder

    @property
    def _grant_batch(self) -> Optional[int]:
        return self.machine.grant_batch

    @property
    def _grant_epoch(self) -> int:
        return self.machine.grant_epoch

    @property
    def _grant_expires_at(self) -> float:
        return self.machine.grant_expires_at

    @property
    def acks_sent(self) -> int:
        return self.machine.acks_sent

    @property
    def nacks_sent(self) -> int:
        return self.machine.nacks_sent

    @property
    def commits_applied(self) -> int:
        return self.machine.commits_applied

    @property
    def recoveries(self) -> int:
        return self.machine.recoveries

    # ------------------------------------------------------------------
    # Local interface used by co-located mobile agents
    # ------------------------------------------------------------------

    def begin_visit(
        self, agent_id: AgentId, request_id: int, acked: int,
    ) -> VisitData:
        """One agent visit: guarded lock enqueue + information exchange."""
        data, effects = self.machine.begin_visit(
            agent_id, request_id, self.env.now, acked=acked
        )
        self._perform_all(effects)
        return data

    def request_lock(self, agent_id: AgentId, request_id: int) -> None:
        """Append the visiting agent to the Locking List (idempotent)."""
        self._perform_all(
            self.machine.request_lock(agent_id, request_id, self.env.now)
        )

    def requeue_lock(self, agent_id: AgentId, request_id: int) -> None:
        """Move the agent's lock entry to the tail of the Locking List."""
        self._perform_all(
            self.machine.requeue_lock(agent_id, request_id, self.env.now)
        )

    def lock_view(self) -> SharedView:
        """Fresh snapshot of this server's lock state."""
        return self.machine.lock_view(self.env.now)

    def read_bulletin(self) -> Dict[str, SharedView]:
        """Views of *other* servers deposited by previous visitors."""
        return self.machine.read_bulletin()

    def post_bulletin(self, views: Dict[str, SharedView]) -> int:
        """Deposit lock views; keeps only the freshest per server."""
        return self.machine.post_bulletin(views)

    def read(self, key: str):
        """Local read — the paper's fast read path (not guaranteed fresh)."""
        return self.machine.read(key)

    def version_of(self, key: str) -> int:
        return self.machine.version_of(key)

    def last_update_time(self, key: str) -> float:
        return self.machine.last_update_time(key)

    def wait_release(self) -> Event:
        """Event that fires at the next lock release at this server.

        Parked losers ([D2]) yield this to learn when to start a refresh
        tour.
        """
        event = Event(self.env)
        self._release_waiters.append(event)
        return event

    # ------------------------------------------------------------------
    # Message handling (Algorithm 2's message clauses)
    # ------------------------------------------------------------------

    _HANDLED_KINDS = (
        "UPDATE", "COMMIT", "ABORT", "RELEASE",
        "SYNC_REQUEST", "SYNC_REPLY", "READQ",
    )

    def _message_loop(self):
        while True:
            msg: Message = yield self.endpoint.receive(self._HANDLED_KINDS)
            if not self.network.host_up(self.host):
                # Fail-stop: a crashed server processes nothing. (Messages
                # delivered during the crash window are already dropped by
                # the network; this guards the exact boundary instant.)
                continue
            if (
                msg.kind in ("UPDATE", "COMMIT")
                and self.config.update_apply_time > 0
            ):
                yield self.env.timeout(self.config.update_apply_time)
            effects = self.machine.on_message(
                msg.kind, msg.payload, src=msg.src, now=self.env.now
            )
            self._perform_all(effects, msg)

    def request_sync(self, peer: str) -> None:
        """Ask ``peer`` for a store snapshot (post-crash catch-up)."""
        self.endpoint.send(peer, "SYNC_REQUEST", payload={})

    # ------------------------------------------------------------------
    # Effect interpretation
    # ------------------------------------------------------------------

    def _perform_all(self, effects, msg: Optional[Message] = None) -> None:
        for effect in effects:
            self._perform(effect, msg)

    def _perform(self, effect, msg: Optional[Message] = None) -> None:
        if isinstance(effect, Send):
            self.endpoint.send(
                effect.dst,
                effect.kind,
                payload=effect.payload,
                category=effect.category or "control",
            )
        elif isinstance(effect, Granted):
            if self._obs is not None:
                self._obs_grants.inc(host=self.host, outcome="ack")
                if msg is not None:
                    self._obs_grant_latency.observe(
                        self.env.now - msg.sent_at, host=self.host
                    )
            self._trace("grant", agent_id=effect.agent_id,
                        request_id=effect.batch_id,
                        detail=f"epoch {effect.epoch}")
        elif isinstance(effect, Nacked):
            if self._obs is not None:
                self._obs_grants.inc(host=self.host, outcome="nack")
            self._trace("nack", agent_id=effect.agent_id,
                        request_id=effect.batch_id,
                        detail=f"held by {effect.holder}")
        elif isinstance(effect, CommitApplied):
            if self._obs is not None:
                self._obs_applies.inc(host=self.host)
            self._trace("apply", agent_id=effect.agent_id,
                        request_id=effect.request_id,
                        detail=f"{effect.key}=v{effect.version}")
        elif isinstance(effect, Recovered):
            self._trace("recover", detail=f"snapshot from {effect.src}")
        elif isinstance(effect, QueueChanged):
            self._note_queue()
        elif isinstance(effect, ReleaseNotify):
            self._notify_release()

    # ------------------------------------------------------------------
    # Observability & tracing
    # ------------------------------------------------------------------

    def attach_observability(self, hub) -> None:
        """Register this replica's metric families with a hub.

        Emits the Locking-List length gauge, the grant-latency histogram
        (UPDATE send → ACK issued, i.e. what a claimer actually waits
        per replica) and grant/apply counters, all labelled by host.
        """
        if hub is None or not getattr(hub, "enabled", False):
            return
        self._obs = hub
        self._obs_ll = hub.gauge(
            "replica_ll_length", "Locking List length", ("host",)
        )
        self._obs_grant_latency = hub.histogram(
            "replica_grant_latency_ms",
            "latency from UPDATE send to grant (ACK) issued", ("host",),
        )
        self._obs_grants = hub.counter(
            "replica_grants_total", "grant decisions on UPDATE messages",
            ("host", "outcome"),
        )
        self._obs_applies = hub.counter(
            "replica_commits_applied_total", "committed writes applied",
            ("host",),
        )
        self._obs_ll.set(len(self.locking_list), host=self.host)

    def _note_queue(self) -> None:
        if self.queue_monitor is not None:
            self.queue_monitor.set(self.env.now, len(self.locking_list))
        if self._obs is not None:
            self._obs_ll.set(len(self.locking_list), host=self.host)

    def _trace(self, kind: str, agent_id=None, request_id=None,
               detail: str = "") -> None:
        if self.trace is not None:
            self.trace.record(
                self.env.now, kind, host=self.host,
                agent=str(agent_id) if agent_id is not None else None,
                request_id=request_id, detail=detail,
            )

    def _notify_release(self) -> None:
        waiters, self._release_waiters = self._release_waiters, []
        for event in waiters:
            if not event.triggered:
                event.succeed(self.env.now)

    # ------------------------------------------------------------------

    def alive(self) -> bool:
        return self.network.host_up(self.host)

    def __repr__(self) -> str:
        return (
            f"<ReplicaServer {self.host!r} ll={len(self.locking_list)} "
            f"ul={len(self.updated_list)} commits={self.commits_applied}>"
        )
