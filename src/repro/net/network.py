"""The asynchronous message-passing network.

Semantics follow the paper's system model (§2): logical channels are
asynchronous with unpredictable but finite delays; processes are
fail-stop. Concretely:

* :meth:`Network.send` is non-blocking; delivery happens after a delay
  drawn from the latency model, scaled by the topology cost of the
  (src, dst) pair.
* Messages to a crashed host are silently dropped (fail-stop: the host
  neither receives nor responds; senders use timeouts).
* Transient link faults drop individual transmissions; reliable unicast
  for control traffic is approximated by the protocols' own
  timeout-and-retry logic, and agent *migrations* surface failures to the
  platform's retry policy (paper §2). Kinds a protocol never retries
  (``reliable_kinds``) ride a reliable channel instead: a transmission
  of one that a random loss drops is sent again a round trip later. A
  cut link (an outage window) or a crashed end still loses it.

Every host gets an :class:`Endpoint`, and a delivered message is
dispatched the moment it arrives; nothing is filed for later. The
network carries messages and knows no conversation: a message goes to
its kind's :meth:`Endpoint.serve` handler at the destination, or, when
nobody serves that kind there, is dropped and counted in
:attr:`NetworkStats.expired`. Replies reach the coordinator that waits
for them through a serve too: the host's effect interpreter takes them
in its claim table, and drops those nobody claims any more. A migration
attempt (:meth:`Network.attempt_transfer`) reports its outcome by
callback.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Dict, Iterable, List, Optional, Tuple

from repro.errors import MigrationError, NetworkError
from repro.net.faults import FaultPlan
from repro.net.latency import LatencyModel, lan_profile
from repro.net.message import HEADER_BYTES, Message, estimate_size
from repro.net.stats import NetworkStats
from repro.net.topology import Topology
from repro.sim.core import Environment
from repro.sim.rng import RandomStreams

__all__ = ["Network", "Endpoint"]


class Endpoint:
    """A host's attachment point: who takes what arrives, plus senders."""

    def __init__(self, network: "Network", host: str) -> None:
        self.network = network
        self.host = host
        #: kind -> what takes its messages
        self._served: Dict[str, Callable[[Message], None]] = {}
        #: the serves that queue, for :attr:`pending`
        self._servers: List[_Server] = []

    def serve(
        self,
        kinds: Tuple[str, ...],
        service_time: Optional[Callable[[Message], float]],
        handle: Callable[[Message], None],
    ) -> None:
        """Serve the messages of ``kinds`` one at a time, by callback.

        A single-server FIFO queue over all of ``kinds``: a message that
        finds the server idle starts its service in the step that
        delivered it — ``handle(msg)`` runs ``service_time(msg)`` ms
        later, or in that same step when the time is zero — and one that
        finds it busy joins the serve's backlog (so :attr:`pending` sees
        it) until the messages before it are done. Fail-stop: a message
        that leaves the backlog while the host is down is dropped
        unhandled (one that *arrives* then never got this far, see
        :meth:`Network._arrive`); the one in service when the host went
        down is still handled, and what it sends is lost.

        ``service_time=None`` serves every message in no time: the
        queue never forms and each message is pushed at ``handle`` as
        it arrives. A kind has at most one serve per host.
        """
        served = self._served
        for kind in kinds:
            if kind in served:
                raise NetworkError(
                    f"kind {kind!r} is already served at {self.host!r}"
                )
        if service_time is None:
            take = handle
        else:
            server = _Server(self, service_time, handle)
            self._servers.append(server)
            take = server.arrived
        for kind in kinds:
            served[kind] = take

    def send(
        self,
        dst: str,
        kind: str,
        payload: Any = None,
        category: str = "control",
        size_bytes: int = 0,
    ) -> Message:
        """Fire-and-forget unicast."""
        msg = Message(
            src=self.host,
            dst=dst,
            kind=kind,
            payload=payload,
            category=category,
            size_bytes=size_bytes,
        )
        self.network.send(msg)
        return msg

    def multicast(
        self,
        dsts: Iterable[str],
        kind: str,
        payload: Any = None,
        category: str = "control",
    ) -> List[Message]:
        """One unicast per destination (excluding self unless listed).

        Every copy carries the same payload, so it is sized once and the
        size handed to each :class:`Message` — the same bytes per
        destination that per-message sizing would account.
        """
        size_bytes = HEADER_BYTES + estimate_size(payload)
        return [
            self.send(dst, kind, payload, category, size_bytes)
            for dst in dsts
        ]

    def broadcast(
        self, kind: str, payload: Any = None, category: str = "control",
        include_self: bool = False,
    ) -> List[Message]:
        """Unicast to every registered host (optionally including self)."""
        dsts = [
            host
            for host in self.network.endpoints
            if include_self or host != self.host
        ]
        return self.multicast(dsts, kind, payload, category)

    @property
    def pending(self) -> int:
        """Messages waiting for a busy server, over all serves."""
        return sum(len(server.backlog) for server in self._servers)

    def __repr__(self) -> str:
        return f"<Endpoint {self.host!r} pending={self.pending}>"


class _Server:
    """One queueing :meth:`Endpoint.serve`: the server and its backlog;
    a service in progress is a heap entry of its bound :meth:`served`."""

    __slots__ = ("network", "host", "service_time", "handle", "backlog",
                 "busy")

    def __init__(
        self,
        endpoint: Endpoint,
        service_time: Callable[[Message], float],
        handle: Callable[[Message], None],
    ) -> None:
        self.network = endpoint.network
        self.host = endpoint.host
        self.service_time = service_time
        self.handle = handle
        self.backlog: Deque[Message] = deque()
        self.busy = False

    def arrived(self, msg: Message) -> None:
        if self.busy:
            self.backlog.append(msg)
        else:
            self.work(msg)

    def work(self, msg: Optional[Message]) -> None:
        """Take messages, ``msg`` first then the backlog, up to the first
        one whose service takes time."""
        self.busy = True
        service_time, handle = self.service_time, self.handle
        while msg is not None:
            delay = service_time(msg)
            if delay > 0:
                self.network.env.call_in(delay, self.served, msg)
                return
            handle(msg)
            msg = self.next()
        self.busy = False

    def served(self, msg: Message) -> None:
        self.handle(msg)
        self.work(self.next())

    def next(self) -> Optional[Message]:
        """The oldest backlogged message the host is up to take."""
        backlog, network = self.backlog, self.network
        while backlog:
            msg = backlog.popleft()
            if not network._crash_windows or network.faults.host_up(
                self.host, network.env._now
            ):
                return msg
        return None


class Network:
    """Simulated wide-area network binding topology, latency and faults.

    Parameters
    ----------
    env:
        Simulation environment (clock in milliseconds).
    topology:
        Host graph with link costs.
    latency:
        Latency model for all traffic; default :func:`lan_profile`.
    faults:
        Crash windows and link faults; default none.
    streams:
        Random streams (for latency jitter and fault draws).
    reliable_kinds:
        Message kinds retransmitted after a random loss; default none.

    Sampled delays are multiplied by the topology's (src, dst) cost,
    making "distant" hosts slower. Links do not keep send order: the
    paper's model only promises reliability, and the protocols must (and
    do) tolerate reordering.
    """

    def __init__(
        self,
        env: Environment,
        topology: Topology,
        latency: Optional[LatencyModel] = None,
        faults: Optional[FaultPlan] = None,
        streams: Optional[RandomStreams] = None,
        reliable_kinds: Iterable[str] = (),
    ) -> None:
        self.env = env
        self.topology = topology
        self.latency = latency if latency is not None else lan_profile()
        self.faults = faults or FaultPlan.none()
        #: the crash schedule's live host -> windows map
        self._crash_windows = self.faults.crashes.by_host
        self.streams = streams or RandomStreams(0)
        self.stats = NetworkStats()
        self.endpoints: Dict[str, Endpoint] = {}
        self._latency_stream = self.streams.stream("net.latency")
        self._fault_stream = self.streams.stream("net.faults")
        #: kinds retransmitted after a random loss (see the module doc)
        self.reliable_kinds = frozenset(reliable_kinds)

    # -- observability -----------------------------------------------------

    def attach_observability(self, hub) -> None:
        """Bridge traffic accounting into an ObservabilityHub.

        Delegates to :meth:`NetworkStats.bind_hub`; every subsequent
        send/drop (messages and agent migrations alike) lands in the
        hub's labelled ``net_*`` counters as well as :attr:`stats`.
        """
        self.stats.bind_hub(hub)

    # -- membership --------------------------------------------------------

    def register(self, host: str) -> Endpoint:
        """Attach a host; returns its endpoint."""
        if host not in self.topology:
            raise NetworkError(f"host {host!r} is not in the topology")
        if host in self.endpoints:
            raise NetworkError(f"host {host!r} is already registered")
        endpoint = Endpoint(self, host)
        self.endpoints[host] = endpoint
        return endpoint

    def host_up(self, host: str) -> bool:
        """Is the host currently alive (per the fault plan)?"""
        # Asked several times per message: with no crash window
        # scheduled (yet) there is nothing to look up.
        if not self._crash_windows:
            return True
        return self.faults.host_up(host, self.env.now)

    # -- delays --------------------------------------------------------------

    def sample_delay(self, src: str, dst: str, size_bytes: int) -> float:
        """One latency draw for a (src, dst, size) transmission."""
        delay = self.latency.sample(src, dst, size_bytes, self._latency_stream)
        if src != dst:
            delay *= self.topology.cost(src, dst)
        return delay

    # -- messaging -------------------------------------------------------------

    def send(self, msg: Message) -> None:
        """Asynchronously transmit ``msg``; never blocks the sender."""
        env = self.env
        src, dst = msg.src, msg.dst
        if dst not in self.endpoints:
            raise NetworkError(f"unknown destination host {dst!r}")
        now = msg.sent_at = env._now
        self.stats.record_send(msg.category, msg.kind, msg.size_bytes)
        # host_up(src), inline: with no crash window scheduled there is
        # nothing to look up.
        if self._crash_windows and not self.faults.host_up(src, now):
            # A crashed host cannot send; account and drop.
            self.stats.record_drop(msg.category, msg.kind)
            return
        if src == dst:
            # A self-send lands after the sender's current step and
            # before every ordinary event of the instant.
            env.call_urgent(self._arrive, msg)
            return
        if self.faults.transmission_fails(
            src, dst, now, self._fault_stream
        ):
            self.stats.record_drop(msg.category, msg.kind)
            if (
                msg.kind in self.reliable_kinds
                and not self.faults.links.cut(src, dst, now)
            ):
                # No acknowledgement within a round trip: send again.
                env.call_in(
                    2 * self.sample_delay(src, dst, msg.size_bytes),
                    self.send, msg,
                )
            return

        delay = self.sample_delay(src, dst, msg.size_bytes)
        # Delivery is one heap entry carrying the message.
        if delay > 0:
            env.call_in(delay, self._arrive, msg)
        else:
            env.call_urgent(self._arrive, msg)

    def _arrive(self, msg: Message) -> None:
        """Arrival callback: hand the message to its kind's serve at the
        destination, or drop it."""
        if self._crash_windows and not self.faults.host_up(
            msg.dst, self.env._now
        ):
            # Fail-stop destination: the message vanishes.
            self.stats.record_drop(msg.category, msg.kind)
            return
        take = self.endpoints[msg.dst]._served.get(msg.kind)
        if take is None:
            self.stats.record_expired()
        else:
            take(msg)

    # -- agent migration ------------------------------------------------------

    def attempt_transfer(
        self,
        src: str,
        dst: str,
        size_bytes: int,
        timeout: float,
        done: Callable[[Optional[MigrationError]], None],
        kind: str = "AGENT",
    ) -> None:
        """One migration attempt, reported by callback.

        On success ``done(None)`` runs after the sampled transfer delay
        (in this step when it is zero); on failure (link fault at
        departure, or destination down at arrival) ``done(error)`` runs
        once ``timeout`` — the paper's failure-detection delay — has
        passed since the attempt began.
        """
        env = self.env
        self.stats.record_send("agent", kind, size_bytes)
        failed_at_send = (
            not self.host_up(src)
            or (
                src != dst
                and self.faults.transmission_fails(
                    src, dst, env.now, self._fault_stream
                )
            )
        )
        if failed_at_send:
            self.stats.record_drop("agent", kind)
            env.call_in(timeout, done, MigrationError(
                f"migration {src}->{dst} lost in transit", destination=dst
            ))
            return

        delay = 0.0 if src == dst else self.sample_delay(src, dst, size_bytes)
        if delay > timeout:
            # The receiver would see the agent too late; the sender's
            # detector fires first.
            env.call_in(timeout, done, MigrationError(
                f"migration {src}->{dst} timed out after {timeout}ms",
                destination=dst,
            ))
            return

        def arrived(_arg: None) -> None:
            if self.host_up(dst):
                done(None)
                return
            self.stats.record_drop("agent", kind)
            failure = MigrationError(
                f"destination {dst} is down", destination=dst
            )
            remaining = max(0.0, timeout - delay)
            if remaining > 0:
                env.call_in(remaining, done, failure)
            else:
                done(failure)

        if delay > 0:
            env.call_in(delay, arrived)
        else:
            arrived(None)

    def __repr__(self) -> str:
        return (
            f"<Network hosts={len(self.endpoints)} latency={self.latency!r} "
            f"now={self.env.now}>"
        )
