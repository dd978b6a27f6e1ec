"""The asynchronous message-passing network.

Semantics follow the paper's system model (§2): logical channels are
asynchronous with unpredictable but finite delays; processes are
fail-stop. Concretely:

* :meth:`Network.send` is non-blocking; delivery happens after a delay
  drawn from the latency model, optionally scaled by the topology cost of
  the (src, dst) pair.
* Messages to a crashed host are silently dropped (fail-stop: the host
  neither receives nor responds; senders use timeouts).
* Transient link faults drop individual transmissions; reliable unicast
  for control traffic is approximated by the protocols' own
  timeout-and-retry logic, and agent *migrations* surface failures to the
  platform's retry policy (paper §2).

Every host gets an :class:`Endpoint`, and a delivered message is
dispatched the moment it arrives; nothing is filed for later. A kind a
stationary process serves goes to its :meth:`Endpoint.serve` handler,
one message at a time. A reply that belongs to a conversation (kinds
declared with a correlation key by :meth:`Network.route`) goes to the
coordinator gathering that conversation's replies until its tally is
satisfied or a deadline passes (:meth:`Endpoint.wait`). A message that
finds neither — a reply after its wait ended, a kind nobody serves — is
dropped and counted in :attr:`NetworkStats.expired`: under the paper's
§2 model the sender has already given up on it. A migration attempt
(:meth:`Network.attempt_transfer`) reports its outcome by callback too.
"""

from __future__ import annotations

from collections import deque
from typing import (
    Any, Callable, Deque, Dict, Hashable, Iterable, List, Optional, Tuple,
    Union,
)

from repro.errors import MigrationError, NetworkError
from repro.net.faults import FaultPlan
from repro.net.latency import LatencyModel, lan_profile
from repro.net.message import HEADER_BYTES, Message, estimate_size
from repro.net.stats import NetworkStats
from repro.net.topology import Topology
from repro.sim.core import Environment
from repro.sim.rng import RandomStreams

__all__ = ["Network", "Endpoint"]


#: One declared correlation key: the kinds replying in one conversation,
#: and the function reading the conversation from a message's payload.
_Keyed = Tuple[Tuple[str, ...], Callable[[Any], Hashable]]


class Endpoint:
    """A host's attachment point: who takes what arrives, plus senders."""

    def __init__(self, network: "Network", host: str) -> None:
        self.network = network
        self.host = host
        #: kind -> what takes its messages that belong to no conversation
        self._served: Dict[str, Callable[[Message], None]] = {}
        #: the serves that queue, for :attr:`pending`
        self._servers: List[_Server] = []
        #: (declared kinds, conversation) -> the wait standing on it
        self._waits: Dict[Tuple[Tuple[str, ...], Hashable], _Wait] = {}

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

    def wait(
        self,
        kind: Union[str, Tuple[str, ...]],
        key: Hashable,
        timeout: float,
        done: Callable[[Optional[Message]], bool],
    ) -> None:
        """Replies until satisfied, or a deadline, by callback.

        ``done(msg)`` is called with each message of conversation
        ``key`` of ``kind`` (a kind, or the tuple :meth:`Network.route`
        declared with a correlation key) and says whether the wait is
        satisfied: a tally returns false until it has its quorum, and
        the wait keeps taking replies. If it is not satisfied ``timeout``
        ms from now, ``done(None)``. Either way the wait has withdrawn
        before that last call, so ``done`` may start the next wait on the
        same conversation. A reply that comes when no wait stands on its
        conversation — before one started, or after it ended — is
        nobody's: it is dropped at arrival and counted as expired.
        """
        kinds = (kind,) if kind.__class__ is str else tuple(kind)
        keyed = self.network._keys.get(kinds[0])
        if keyed is None or keyed[0] != kinds:
            raise NetworkError(
                f"no correlation key was declared for {kinds!r}"
            )
        if key is None:
            raise NetworkError(f"a wait on {kinds!r} needs its key")
        conversation = (keyed[0], key)
        waits = self._waits
        if conversation in waits:
            raise NetworkError(
                f"conversation {key!r} of {kinds!r} is already awaited"
            )
        wait = waits[conversation] = _Wait(waits, conversation, done)
        self.network.env.call_in(timeout, wait.deadline)

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


class _Wait:
    """One :meth:`Endpoint.wait` in progress.

    The entry standing on the conversation and the deadline in the heap
    are this object's bound methods. A closure that stood *itself* back
    on the conversation would refer to itself through its cell: a
    reference cycle per wait, holding ``done`` and all it captured
    until the cyclic collector came by. This object refers to nothing
    that refers back to it, so a finished wait is freed as soon as the
    endpoint and the heap let go of it.
    """

    __slots__ = ("waits", "conversation", "done", "waiting")

    def __init__(
        self,
        waits: Dict[Hashable, "_Wait"],
        conversation: Hashable,
        done: Callable[[Optional[Message]], bool],
    ) -> None:
        self.waits = waits
        self.conversation = conversation
        self.done = done
        self.waiting = True

    def replied(self, msg: Message) -> None:
        """A reply of the conversation: withdraw, hand it to ``done``,
        and stand again unless that satisfied the wait."""
        waits = self.waits
        del waits[self.conversation]
        if self.done(msg):
            self.waiting = False
        else:
            waits[self.conversation] = self

    def deadline(self, _arg: None) -> None:
        """Time is up: withdraw, then ``done(None)`` unless satisfied."""
        if self.waiting:
            self.waiting = False
            del self.waits[self.conversation]
            self.done(None)


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
    scale_by_cost:
        When true (default), sampled delays are multiplied by the
        topology's (src, dst) cost, making "distant" hosts slower.
    fifo_links:
        When true, messages on the same (src, dst) link are delivered in
        send order (TCP-like ordered channels): a message whose sampled
        delay would let it overtake an earlier one is held back to the
        earlier one's arrival instant. Default false — the paper's model
        only promises reliability, not ordering, and the protocols must
        (and do) tolerate reordering.
    """

    def __init__(
        self,
        env: Environment,
        topology: Topology,
        latency: Optional[LatencyModel] = None,
        faults: Optional[FaultPlan] = None,
        streams: Optional[RandomStreams] = None,
        scale_by_cost: bool = True,
        fifo_links: bool = False,
    ) -> None:
        self.env = env
        self.topology = topology
        self.latency = latency if latency is not None else lan_profile()
        self.faults = faults or FaultPlan.none()
        #: the crash schedule's live host -> windows map
        self._crash_windows = self.faults.crashes.by_host
        self.streams = streams or RandomStreams(0)
        self.scale_by_cost = scale_by_cost
        self.fifo_links = fifo_links
        self.stats = NetworkStats()
        self.endpoints: Dict[str, Endpoint] = {}
        #: kind -> its declared correlation key (see route)
        self._keys: Dict[str, _Keyed] = {}
        self._latency_stream = self.streams.stream("net.latency")
        self._fault_stream = self.streams.stream("net.faults")
        # per-(src, dst) arrival horizon used by fifo_links
        self._link_horizon: Dict[tuple, float] = {}

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

    # -- conversations ----------------------------------------------------

    def route(
        self, kinds: Iterable[str], key: Callable[[Any], Hashable]
    ) -> None:
        """Declare that replies of ``kinds`` belong to conversations.

        ``key(payload)`` names the conversation a reply belongs to (a
        lock round's ``(rid, epoch)``, a quorum read's ``request_id``),
        read once, at arrival: the reply goes to the
        :meth:`Endpoint.wait` on ``(kinds, key)`` at its destination,
        never to another conversation's, or is dropped when none stands
        there. Declare before traffic of these kinds flows; repeating a
        declaration is a no-op.
        """
        kinds = tuple(kinds)
        keyed: _Keyed = (kinds, key)
        for kind in kinds:
            known = self._keys.get(kind)
            if known is not None and (known[0] != kinds or known[1] is not key):
                raise NetworkError(
                    f"kind {kind!r} is already keyed with {known[0]!r}"
                )
            self._keys[kind] = keyed

    # -- delays --------------------------------------------------------------

    def sample_delay(self, src: str, dst: str, size_bytes: int) -> float:
        """One latency draw for a (src, dst, size) transmission."""
        delay = self.latency.sample(src, dst, size_bytes, self._latency_stream)
        if self.scale_by_cost and src != dst:
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
            return

        delay = self.sample_delay(src, dst, msg.size_bytes)
        if self.fifo_links:
            link = (src, dst)
            horizon = max(now + delay, self._link_horizon.get(link, 0.0))
            self._link_horizon[link] = horizon
            delay = horizon - now
        # Delivery is one heap entry carrying the message.
        if delay > 0:
            env.call_in(delay, self._arrive, msg)
        else:
            env.call_urgent(self._arrive, msg)

    def _arrive(self, msg: Message) -> None:
        """Arrival callback: hand the message to its conversation's wait
        or its kind's serve at the destination, or drop it."""
        if self._crash_windows and not self.faults.host_up(
            msg.dst, self.env._now
        ):
            # Fail-stop destination: the message vanishes.
            self.stats.record_drop(msg.category, msg.kind)
            return
        endpoint = self.endpoints[msg.dst]
        kind = msg.kind
        keyed = self._keys.get(kind)
        if keyed is not None:
            wait = endpoint._waits.get((keyed[0], keyed[1](msg.payload)))
            if wait is None:
                self.stats.record_expired()
            else:
                wait.replied(msg)
            return
        take = endpoint._served.get(kind)
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
