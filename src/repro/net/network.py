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

Every host gets an :class:`Endpoint` whose inbox is a routed mailbox:
a delivered message is filed once, by its kind (and, for kinds declared
with :meth:`Network.route`, by a correlation key read from its payload).
Nothing pulls from it: a stationary process takes its kinds one message
at a time by callback (:meth:`Endpoint.serve`), and a coordinator
gathers the replies of one conversation the same way, until its tally
is satisfied or a deadline passes (:meth:`Endpoint.wait`). A migration
attempt (:meth:`Network.attempt_transfer`) reports its outcome by
callback too.
"""

from __future__ import annotations

from typing import (
    Any, Callable, Dict, Hashable, Iterable, List, Optional, Tuple, Union,
)

from repro.errors import MigrationError, NetworkError
from repro.net.faults import FaultPlan
from repro.net.latency import LatencyModel, lan_profile
from repro.net.message import HEADER_BYTES, Message, estimate_size
from repro.net.stats import NetworkStats
from repro.net.topology import Topology
from repro.sim.core import Environment
from repro.sim.rng import RandomStreams
from repro.sim.stores import RoutedStore

__all__ = ["Network", "Endpoint"]


#: One declared route: the kinds sharing a queue, the queue's name, and
#: the function reading a message's correlation key from its payload.
_Route = Tuple[Tuple[str, ...], str, Optional[Callable[[Any], Hashable]]]


class Endpoint:
    """A host's attachment point: routed inbox plus convenience senders."""

    #: Don't bother reaping inboxes shorter than this.
    REAP_MIN_BACKLOG = 32

    def __init__(self, network: "Network", host: str) -> None:
        self.network = network
        self.host = host
        self.inbox = RoutedStore(network.route_of)
        #: expired messages dropped by inbox hygiene (see maybe_reap)
        self.reaped = 0
        self._next_reap = 0.0

    def maybe_reap(self) -> int:
        """Drop delivered-but-unclaimed messages older than the
        network's ``inbox_ttl``; returns how many were dropped.

        A message still sitting in the inbox is one that *no registered
        waiter matched at delivery time* — under this codebase's
        protocols every consumer registers its receive in the same
        zero-delay instant it triggers the reply, so an unclaimed
        message that has outlived every protocol timeout is dead (the
        classic case: the GRANTs a quorum coordinator no longer needed
        once it had its majority, or those of a round it abandoned at
        its deadline, each left in the queue of a correlation key
        nobody will ask for again). Without hygiene those corpses
        accumulate without bound. The reap is amortised (only on
        delivery, only past :data:`REAP_MIN_BACKLOG` messages over all
        queues, at most every ``ttl/4``, so one sweep of the backlog
        pays for a quarter window of deliveries) and purely a function
        of simulation state, so runs stay bit-deterministic per seed.
        """
        ttl = self.network.inbox_ttl
        now = self.network.env.now
        if len(self.inbox) < self.REAP_MIN_BACKLOG or now < self._next_reap:
            return 0
        self._next_reap = now + ttl / 4.0
        cutoff = now - ttl
        dropped = self.inbox.discard(lambda m: m.sent_at < cutoff)
        if dropped:
            self.reaped += dropped
            self.network.stats.record_expired(dropped)
        return dropped

    def serve(
        self,
        kinds: Tuple[str, ...],
        service_time: Optional[Callable[[Message], float]],
        handle: Callable[[Message], None],
    ) -> None:
        """Serve the messages of ``kinds`` one at a time, by callback.

        A single-server queue over the inbox queue ``kinds`` share: a
        message that finds the server idle starts its service in the
        step that delivered it — ``handle(msg)`` runs
        ``service_time(msg)`` ms later, or in that same step when the
        time is zero — and one that finds it busy waits in the inbox
        (so :attr:`pending`, :meth:`maybe_reap` and the crash boundary
        below see it) until the messages before it are done. Fail-stop:
        a message that comes off the queue while the host is down is
        dropped unhandled (one that *arrives* then never got this far,
        see :meth:`Network._arrive`); the one in service when the host
        went down is still handled, and what it sends is lost.

        ``service_time=None`` serves every message in no time: the
        queue never forms and each message is pushed at ``handle`` as
        it arrives.
        """
        network = self.network
        env, inbox, host = network.env, self.inbox, self.host
        queue = network.shared_queue(kinds)
        if service_time is None:
            def pushed(msg: Message) -> bool:
                handle(msg)
                return True

            inbox.consume(queue, pushed)
            return
        busy = False

        def arrived(msg: Message) -> bool:
            if busy:
                return False
            work(msg)
            return True

        def work(msg: Optional[Message]) -> None:
            """Take messages, ``msg`` first then the backlog, up to the
            first one whose service takes time."""
            nonlocal busy
            busy = True
            while msg is not None:
                delay = service_time(msg)
                if delay > 0:
                    env.call_in(delay, served, msg)
                    return
                handle(msg)
                msg = backlog()
            busy = False

        def served(msg: Message) -> None:
            handle(msg)
            work(backlog())

        crashes = network._crash_windows
        faults = network.faults

        def backlog() -> Optional[Message]:
            while True:
                msg = inbox.pop(queue)
                if (
                    msg is None or not crashes
                    or faults.host_up(host, env._now)
                ):
                    return msg

        inbox.consume(queue, arrived)
        work(backlog())

    def wait(
        self,
        kind: Union[str, Tuple[str, ...]],
        key: Hashable,
        timeout: float,
        done: Callable[[Optional[Message]], bool],
    ) -> None:
        """Replies until satisfied, or a deadline, by callback.

        ``done(msg)`` is called with each message of conversation
        ``key`` on the keyed route of ``kind`` (a kind, or the tuple
        :meth:`Network.route` declared), those already here first, and
        says whether the wait is satisfied: a tally returns false until
        it has its quorum, and the wait keeps taking replies. If it is
        not satisfied ``timeout`` ms from now, ``done(None)``. Either
        way the wait has withdrawn before that last call, so ``done``
        may start the next wait on the same conversation; a reply after
        the end is nobody's and stays in the inbox for the reaper.
        """
        inbox = self.inbox
        queue = self.network.queue_for(kind, key)
        msg = inbox.pop(queue)
        while msg is not None:
            if done(msg):
                return
            msg = inbox.pop(queue)
        wait = _Wait(inbox, queue, done)
        inbox.consume(queue, wait.replied)
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
        """Number of queued, unreceived messages, over all queues."""
        return len(self.inbox)

    def __repr__(self) -> str:
        return f"<Endpoint {self.host!r} pending={self.pending}>"


class _Wait:
    """One :meth:`Endpoint.wait` in progress.

    The consumer standing on the conversation's queue and the deadline
    in the heap are this object's bound methods. A closure that stood
    *itself* back on the queue would refer to itself through its cell:
    a reference cycle per wait, holding ``done`` and all it captured
    until the cyclic collector came by. This object refers to nothing
    that refers back to it, so a finished wait is freed as soon as the
    inbox and the heap let go of it.
    """

    __slots__ = ("inbox", "queue", "done", "waiting")

    def __init__(
        self,
        inbox: RoutedStore,
        queue: Hashable,
        done: Callable[[Optional[Message]], bool],
    ) -> None:
        self.inbox = inbox
        self.queue = queue
        self.done = done
        self.waiting = True

    def replied(self, msg: Message) -> bool:
        """A reply of the conversation: withdraw, hand it to ``done``,
        and stand again unless that satisfied the wait."""
        inbox = self.inbox
        inbox.consume(self.queue, None)
        if self.done(msg):
            self.waiting = False
        else:
            inbox.consume(self.queue, self.replied)
        return True

    def deadline(self, _arg: None) -> None:
        """Time is up: withdraw, then ``done(None)`` unless satisfied."""
        if self.waiting:
            self.waiting = False
            self.inbox.consume(self.queue, None)
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
    inbox_ttl:
        Inbox hygiene window in ms, required and positive: a delivered
        message no receiver claimed for this long is reaped from
        whichever queue holds it (see :meth:`Endpoint.maybe_reap`). A
        :class:`Deployment` passes ``INBOX_WINDOW_FACTOR * grant_ttl``.
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
        *,
        inbox_ttl: float,
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
        if inbox_ttl <= 0:
            raise NetworkError(f"inbox_ttl must be positive: {inbox_ttl}")
        #: Inbox hygiene window (ms): delivered messages unclaimed for
        #: longer than this are reaped (see Endpoint.maybe_reap).
        self.inbox_ttl = inbox_ttl
        self.stats = NetworkStats()
        self.endpoints: Dict[str, Endpoint] = {}
        #: kind -> declared route; an undeclared kind has its own queue
        self._routes: Dict[str, _Route] = {}
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

    # -- mailbox routing -----------------------------------------------------

    def route(
        self,
        kinds: Iterable[str],
        key: Optional[Callable[[Any], Hashable]] = None,
    ) -> None:
        """Declare that messages of ``kinds`` share one inbox queue.

        A consumer that handles several kinds in arrival order (a
        server's request loop) declares them together and serves
        ``kinds``. ``key(payload)`` names the conversation a reply
        belongs to (a lock round's ``(rid, epoch)``, a quorum read's
        ``request_id``): each conversation then gets a queue of its own,
        computed once at delivery, and ``wait(kinds, key, ...)`` never
        meets another conversation's messages. A message whose key is
        ``None`` belongs to no conversation and joins the queue the
        kinds share (the one :meth:`Endpoint.serve` takes from). Declare
        before traffic of these kinds flows; repeating a declaration is
        a no-op.
        """
        kinds = tuple(kinds)
        rule: _Route = (kinds, "+".join(kinds), key)
        for kind in kinds:
            known = self._routes.get(kind)
            if known is not None and (known[0] != kinds or known[2] is not key):
                raise NetworkError(
                    f"kind {kind!r} is already routed with {known[0]!r}"
                )
            self._routes[kind] = rule

    def route_of(self, msg: Message) -> Hashable:
        """The inbox queue ``msg`` is filed in at its destination."""
        rule = self._routes.get(msg.kind)
        if rule is None:
            return msg.kind
        _kinds, queue, key = rule
        if key is None:
            return queue
        conversation = key(msg.payload)
        return queue if conversation is None else (queue, conversation)

    def _rule(self, kinds: Tuple[str, ...]) -> _Route:
        """The route ``kinds`` were declared with (a lone undeclared
        kind is a route of its own)."""
        rule = self._routes.get(kinds[0])
        if rule is None:
            if len(kinds) > 1:
                raise NetworkError(f"no route was declared for {kinds!r}")
            return kinds, kinds[0], None
        if rule[0] != kinds:
            raise NetworkError(
                f"{kinds!r} is routed together with {rule[0]!r}; "
                "take the declared kinds as one"
            )
        return rule

    def shared_queue(self, kinds: Iterable[str]) -> Hashable:
        """The inbox queue holding the messages of ``kinds`` that belong
        to no conversation."""
        return self._rule(tuple(kinds))[1]

    def queue_for(
        self, kind: Union[str, Tuple[str, ...]], key: Optional[Hashable]
    ) -> Hashable:
        """The inbox queue of conversation ``key`` on the route of
        ``kind`` (the queue the kinds share when ``key`` is None)."""
        kinds = (kind,) if kind.__class__ is str else tuple(kind)
        declared, queue, key_of = self._rule(kinds)
        if (key is None) != (key_of is None):
            raise NetworkError(
                f"route {declared!r} "
                + ("needs" if key is None else "takes no")
                + " correlation key"
            )
        return queue if key is None else (queue, key)

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
        now = msg.sent_at = env._now
        src, dst = msg.src, msg.dst
        self.stats.record_send(msg.category, msg.kind, msg.size_bytes)

        if dst not in self.endpoints:
            raise NetworkError(f"unknown destination host {dst!r}")
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
        """Arrival callback: file the message at its destination."""
        if self._crash_windows and not self.faults.host_up(
            msg.dst, self.env._now
        ):
            # Fail-stop destination: the message vanishes.
            self.stats.record_drop(msg.category, msg.kind)
            return
        endpoint = self.endpoints[msg.dst]
        endpoint.inbox.put(msg)
        endpoint.maybe_reap()

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
