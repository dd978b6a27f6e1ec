"""The update-agent protocol kernel — the paper's Algorithm 1, sans-IO.

:class:`AgentMachine` is the *logic* of one update mobile agent: tour
the replicas merging Locking Lists and Updated Lists into the carried
Locking Table, evaluate the distributed priority after every visit,
park when the tour is exhausted ([D2]), and — holding the lock — run
the claim round (UPDATE broadcast → majority of grants → version
assignment [D3] → COMMIT → dispose). An agent that met no rival takes
grants on its visits, and a majority of them lets it commit with no
UPDATE round at all (:meth:`AgentMachine.start_claim`). An agent that
sees a rival W win by majority, and itself win once W is done (one
step of the paper's §3.3 pipelining,
:func:`~repro.core.machines.priority.rank_queue`), does not park: it
claims behind W at once, and each replica answers that claim when W's
COMMIT frees the grant there.

The machine operates over an :class:`AgentCoreState` record (picklable;
the live backend ships it between hosts and rebuilds a machine at every
hop) and communicates with the world exclusively through typed inputs
(:mod:`~repro.core.machines.events`) and effects
(:mod:`~repro.core.machines.effects`). It never touches a clock, a
queue, a socket, or a random stream: migration targets come back as a
``Migrate(candidates)`` effect (the *driver* owns the itinerary policy
and its RNG), and the claim back-off is a ``Backoff(mean)`` effect (the
driver samples the exponential).

Every input returns a finite effect batch that either ends in a
continuation effect (``Migrate`` / ``Park`` / ``Backoff`` / ``Visit`` /
``Dispose``) or leaves the machine awaiting replies
(:attr:`AgentMachine.awaiting` is ``"acks"`` or ``"fetch"``), so drivers
can run a flat interpretation loop with no recursion.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.errors import ProtocolError
from repro.core.machines.identity import AgentId, host_bytes
from repro.core.machines.effects import (
    Backoff,
    Broadcast,
    CancelTimer,
    ClaimResolved,
    ClaimStarted,
    Dispose,
    Effect,
    LockWon,
    Migrate,
    Note,
    Park,
    PostBulletin,
    Send,
    SetTimer,
    Text,
    Visit,
)
from repro.core.machines.events import (
    Arrived,
    MsgReceived,
    ReplicaDown,
    TimerFired,
)
from repro.core.machines.priority import OTHER, STALEMATE, WIN, Decision, decide
from repro.core.machines.table import LockingTable
from repro.core.machines.wire import Transform, UpdatePayload, WriteOp

__all__ = ["AgentCoreState", "AgentMachine", "suitcase_size"]

#: Lifecycle phases of the agent machine.
TOURING = "touring"
PARKED = "parked"
BACKOFF = "backoff"
CLAIMING = "claiming"
DONE = "done"

_NO_HOSTS: frozenset = frozenset()


@dataclass
class AgentCoreState:
    """The protocol state one update agent carries.

    This is the paper's suitcase — Request List, Locking Table,
    Un-visited Servers List, identifiers — plus the transient claim
    bookkeeping. Everything is picklable; the live backend serialises
    this record for migration (claim transients are only populated while
    the agent is stationary, never mid-flight).

    ``requests`` entries are tuples whose first three elements are
    ``(request_id, key, value)``; backends may append extra elements
    (the live runtime carries ``created_at``), which the kernel ignores.
    """

    agent_id: AgentId
    home: str
    batch_id: int
    requests: List[Tuple]
    table: LockingTable = field(default_factory=LockingTable)
    visited: Set[str] = field(default_factory=set)
    tour_remaining: Set[str] = field(default_factory=set)
    unavailable: Set[str] = field(default_factory=set)
    visit_events: int = 0
    epoch: int = 0
    failed_claims: int = 0
    park_count: int = 0
    location: str = ""
    phase: str = TOURING
    # -- causal trace context (observational only) ---------------------
    # The trace id names this agent's whole journey; the root span id
    # points at the journey's root span in the recording tracer. Both
    # ride in the suitcase so spans recorded at *different hosts* (live
    # backend: a pickle hop per migration) still link into one journey.
    # The kernel never reads either beyond copying them into payloads.
    trace_id: Optional[str] = None
    trace_root: Optional[int] = None
    #: grants taken on visits, held until the claim spends them or the
    #: agent gives them back: host -> (that server's versions of the
    #: batch's keys, when the grant was taken there)
    visit_grants: Dict[str, Tuple[Dict[str, int], float]] = field(
        default_factory=dict
    )
    #: "acks" | "fetch" | None — what reply the claim round is blocked on.
    awaiting: Optional[str] = None
    # -- claim-round transients (reset by start_claim) -----------------
    #: the majority winner a pipelined claim queues behind, or None
    behind: Optional[AgentId] = None
    acked_versions: Dict[str, Dict[str, int]] = field(default_factory=dict)
    acked_votes: int = 0
    nack_votes: int = 0
    nack_hosts: Set[str] = field(default_factory=set)
    #: remaining (key, source_host) RMW base-value fetches, in key order
    fetch_plan: List[Tuple[str, str]] = field(default_factory=list)
    fetch_key: Optional[str] = None
    base_values: Dict[str, Any] = field(default_factory=dict)
    # -- journey log (observational only) -------------------------------
    # Stamped by the effect interpreter (``lock_wait_since`` also by the
    # machine, when it backs off), never read by the machine. The
    # measurements end up in the request records; the ``*_since`` /
    # ``migrate_*`` stamps are phase start times, carried so that the
    # host that *completes* a phase can record its span — a hop's send
    # time travels to the destination, the lock-wait window start to
    # wherever the lock is finally won.
    dispatched_at: Optional[float] = None
    lock_acquired_at: Optional[float] = None
    visits_to_lock: Optional[int] = None
    hops: int = 0
    lock_wait_since: Optional[float] = None
    parked_since: Optional[float] = None
    migrate_sent_at: Optional[float] = None
    migrate_src: Optional[str] = None


#: What the suitcase's description spends beyond its contents: the
#: container, its four key names and the un-visited list's container.
_SUITCASE_BASE = (
    16 + len("agent_id") + len("requests") + len("unvisited") + len("table")
    + 16
)


def suitcase_size(state: AgentCoreState, requests_size: int) -> int:
    """Bytes a migration charges for ``state``: ``estimate_size`` of
    the paper's suitcase ``{"agent_id", "requests", "unvisited":
    sorted(tour_remaining), "table"}``, given the Request List's size,
    which does not change while the agent travels."""
    return (
        _SUITCASE_BASE + state.agent_id.wire_size() + requests_size
        + sum(map(host_bytes, state.tour_remaining))
        + state.table.wire_size()
    )


def _one_key(requests: List[Tuple]) -> str:
    """The key every request of a batch writes; a batch of two keys is
    refused (ordered multi-key locking is not implemented)."""
    key = requests[0][1]
    for request in requests:
        if request[1] != key:
            raise ProtocolError(
                f"an agent writes one key; this batch names {key!r} and "
                f"{request[1]!r}"
            )
    return key


class AgentMachine:
    """Pure Algorithm 1 over an :class:`AgentCoreState`."""

    def __init__(
        self,
        state: AgentCoreState,
        hosts,
        tunables,
        votes: Optional[Dict[str, int]] = None,
    ) -> None:
        self.state = state
        self.hosts = list(hosts)
        #: duck-typed: park_timeout / ack_timeout / max_claims /
        #: claim_backoff are read per-use.
        self.tunables = tunables
        self.votes = dict(votes) if votes else None
        #: the one key the batch writes: an agent locks, parks and
        #: claims on it alone (docs/protocol.md §2, "One lock per key")
        self.key = _one_key(state.requests)
        # Normalise containers: the live backend historically carried
        # tour_remaining as a list; the kernel reasons over sets.
        state.visited = set(state.visited)
        state.tour_remaining = set(state.tour_remaining)
        state.unavailable = set(state.unavailable)

    # -- voting (mirrors MARP's weighted-voting generalisation) --------

    @property
    def n_replicas(self) -> int:
        return len(self.hosts)

    @property
    def total_votes(self) -> int:
        return sum(self.votes.values()) if self.votes else self.n_replicas

    @property
    def vote_majority(self) -> int:
        return self.total_votes // 2 + 1

    def vote_of(self, host: str) -> int:
        if self.votes is None:
            return 1
        return self.votes.get(host, 0)

    @property
    def awaiting(self) -> Optional[str]:
        return self.state.awaiting

    def asks_grant(self) -> bool:
        """Whether the next visit asks the replica for the key's grant:
        while this agent's table shows no other live agent queued
        anywhere."""
        s = self.state
        return s.table.alone(s.agent_id)

    # -- input dispatch -------------------------------------------------

    def on(self, event) -> List[Effect]:
        if isinstance(event, Arrived):
            return self.on_arrived(event)
        if isinstance(event, ReplicaDown):
            return self.on_replica_down(event)
        if isinstance(event, MsgReceived):
            return self.on_message(event.kind, event.payload, event.now)
        if isinstance(event, TimerFired):
            return self.on_timer(event)
        raise TypeError(f"agent machine cannot handle {event!r}")

    # -- touring (steps 1-2 of Algorithm 1) ----------------------------

    def on_arrived(self, event: Arrived) -> List[Effect]:
        """One completed visit: merge, share, decide, act."""
        s = self.state
        woke = s.phase == PARKED
        s.phase = TOURING
        s.location = event.host
        if event.grant is not None:
            s.visit_grants[event.host] = event.grant
        s.table.absorb(event.view, event.finished, event.bulletin)
        # The table's own dict, not a copy (see PostBulletin): the
        # replica skips its own entry.
        effects: List[Effect] = [PostBulletin(s.table.views)]
        s.visited.add(event.host)
        s.visit_events += 1
        s.tour_remaining.discard(event.host)
        effects.append(
            Note("visit", Text("rank %s of %s", event.rank, event.ll_len))
        )

        decision = self._decide()
        claim = self._claim(decision, event.now)
        if claim is not None:
            return effects + claim
        if s.visit_grants and any(
            agent != s.agent_id for agent in s.table.top_counts()
        ):
            # A rival tops a known server: it may need these grants.
            effects += self._drop_visit_grants()
        if woke and decision.outcome != OTHER:
            # Still unclear after the park refresh: start a new tour over
            # all other servers; previously unavailable replicas get
            # another chance in the new round. (On OTHER a known winner
            # is in its update round; its COMMIT will wake us here, so
            # the agent re-parks without touring.)
            s.unavailable.clear()
            s.tour_remaining = set(self.hosts) - {s.location}
        return effects + self._advance()

    def on_replica_down(self, event: ReplicaDown) -> List[Effect]:
        """Paper §2: give up on this replica until the next round.

        Unavailability feeds the completeness requirement of the
        tie-break rules, so the machine re-decides immediately — knowing
        a replica is down can flip an undecided state into a designated
        stalemate win.
        """
        s = self.state
        s.unavailable.add(event.host)
        effects: List[Effect] = [Note("unavailable", host=event.host)]
        decision = self._decide()
        claim = self._claim(decision, event.now)
        if claim is not None:
            return effects + claim
        return effects + self._advance()

    def _decide(self, extra_done: frozenset = _NO_HOSTS) -> Decision:
        s = self.state
        return decide(
            s.table,
            self.n_replicas,
            s.agent_id,
            votes=self.votes,
            extra_done=extra_done,
            unavailable=(
                frozenset(s.unavailable) if s.unavailable else _NO_HOSTS
            ),
        )

    def _claim(
        self, decision: Decision, now: float
    ) -> Optional[List[Effect]]:
        """Claim the lock if the rules give it to this agent: a majority
        of top-ranks or the identifier tie-break; or, when another agent
        W holds a majority, a majority once W is done — one step of
        :func:`~repro.core.machines.priority.rank_queue` — which makes
        this agent next in line, and it claims behind W."""
        if decision.outcome == WIN or (
            decision.outcome == STALEMATE
            and decision.winner == self.state.agent_id
        ):
            return self._win_and_claim(decision, now)
        if decision.outcome == OTHER:
            winner = decision.winner
            second = self._decide(frozenset((winner,)))
            if second.outcome == WIN:
                return self._win_and_claim(second, now, behind=winner)
        return None

    def _advance(self) -> List[Effect]:
        """One movement step: tour onward, or park and refresh ([D2])."""
        s = self.state
        candidates = s.tour_remaining
        if s.unavailable:
            candidates = candidates - s.unavailable
        if candidates:
            return [Migrate(frozenset(candidates))]
        s.park_count += 1
        s.phase = PARKED
        effects = self._drop_visit_grants() if s.visit_grants else []
        effects += [Note("park"), Park(self.tunables.park_timeout)]
        return effects

    def _drop_visit_grants(self) -> List[Effect]:
        """Give back every visit grant, then bump the epoch: the grants
        were taken at the current epoch, so a RELEASE that straggles in
        after a later visit's grant cannot free that one."""
        s = self.state
        release = self._payload()
        effects: List[Effect] = [
            Send(host, "RELEASE", release) for host in s.visit_grants
        ]
        s.visit_grants = {}
        s.epoch += 1
        return effects

    # -- the claim round (step 3: UPDATE / ACK / COMMIT) ---------------

    def _win_and_claim(
        self, decision: Decision, now: float,
        behind: Optional[AgentId] = None,
    ) -> List[Effect]:
        s = self.state
        effects: List[Effect] = [
            LockWon(
                reason=decision.reason,
                visits=len(s.visited),
                visit_events=s.visit_events,
                parks=s.park_count,
            )
        ]
        return effects + self.start_claim(now, behind)

    def start_claim(
        self, now: float, behind: Optional[AgentId] = None
    ) -> List[Effect]:
        """Open a claim: on visit grants, or by an UPDATE round.

        Visit grants that already hold a vote majority, none taken more
        than ``ack_timeout`` ago — no older than a round's ACKs are when
        its majority forms — are the claim's ACKs: the agent commits
        with no UPDATE sent. Otherwise it broadcasts UPDATE and awaits a
        grant majority; a server that granted on the visit renews the
        grant with its ACK.

        A claim ``behind`` a majority winner W gives its visit grants
        back and always runs the round: its UPDATE and COMMIT name W,
        and a replica holds each until W has left its Locking List (and
        the UPDATE until the grant is free), so the ACKs report W's
        writes and the COMMIT applies after them.

        Public so the live backend can drive a claim directly; the epoch
        bump makes acknowledgements of an abandoned earlier round
        uncountable toward this one.
        """
        s = self.state
        effects: List[Effect] = (
            self._drop_visit_grants()
            if behind is not None and s.visit_grants else []
        )
        s.epoch += 1
        s.phase = CLAIMING
        s.acked_versions = {}
        s.acked_votes = 0
        s.nack_votes = 0
        s.nack_hosts = set()
        s.fetch_plan = []
        s.fetch_key = None
        s.base_values = {}
        s.behind = behind
        grants, s.visit_grants = s.visit_grants, {}
        if behind is None and self._grants_suffice(grants, now):
            s.acked_versions = {
                host: versions for host, (versions, _taken) in grants.items()
            }
            return [
                ClaimStarted(s.epoch, "visit"),
                Note("claim", f"epoch {s.epoch} on visit grants"),
            ] + self._majority_reached(now)
        s.awaiting = "acks"
        # The UPDATE names the keys the batch will write: each ACK
        # reports its server's versions of exactly those ([D3]).
        if behind is None:
            effects += [
                ClaimStarted(s.epoch, "round"),
                Note("claim", f"epoch {s.epoch}"),
            ]
        else:
            effects += [
                ClaimStarted(s.epoch, "behind"),
                Note("claim", Text("epoch %s behind %s", s.epoch, behind)),
            ]
        return effects + [
            Broadcast("UPDATE", self._payload(
                keys=(self.key,), behind=behind
            )),
            SetTimer("ack", self.tunables.ack_timeout),
        ]

    def _grants_suffice(
        self, grants: Dict[str, Tuple[Dict[str, int], float]], now: float
    ) -> bool:
        """Visit grants certify the claim: a vote majority of them, none
        older than ``ack_timeout``. The fetches and the COMMIT then
        leave no later after the grants were taken than a round's do
        after its ACKs were, so the TTL floor that covers rounds covers
        this claim too."""
        if sum(map(self.vote_of, grants)) < self.vote_majority:
            return False
        oldest = now - self.tunables.ack_timeout
        return all(taken_at >= oldest for _versions, taken_at in grants.values())

    def _payload(
        self,
        writes: Tuple[WriteOp, ...] = (),
        keys: Optional[Tuple[str, ...]] = None,
        behind: Optional[AgentId] = None,
    ) -> UpdatePayload:
        s = self.state
        return UpdatePayload(
            batch_id=s.batch_id,
            agent_id=s.agent_id,
            origin=s.home,
            writes=tuple(writes),
            reply_to=s.location,
            epoch=s.epoch,
            trace_id=s.trace_id,
            keys=keys,
            behind=behind,
        )

    def on_message(
        self, kind: str, payload: Any, now: float
    ) -> List[Effect]:
        s = self.state
        if kind in ("ACK", "NACK"):
            if (
                s.awaiting != "acks"
                or payload["batch_id"] != s.batch_id
                or payload["epoch"] != s.epoch
            ):
                return []
            sender = payload["from"]
            if kind == "ACK":
                if sender in s.acked_versions:
                    return []
                s.acked_versions[sender] = payload["versions"]
                s.acked_votes += self.vote_of(sender)
                if s.acked_votes >= self.vote_majority:
                    return [CancelTimer("ack")] + self._majority_reached(now)
                return []
            if sender in s.nack_hosts:
                return []
            s.nack_hosts.add(sender)
            s.nack_votes += self.vote_of(sender)
            # Early exit when a majority is provably out of reach.
            if self.total_votes - s.nack_votes < self.vote_majority:
                return self._fail_claim("conflict", None, now)
            return []
        if kind == "READR":
            if s.awaiting != "fetch" or s.fetch_key is None:
                return []
            if payload["request_id"] != (s.batch_id, s.epoch, s.fetch_key):
                return []
            s.base_values[s.fetch_key] = payload["value"]
            s.fetch_key = None
            effects: List[Effect] = [CancelTimer("fetch")]
            if s.fetch_plan:
                return effects + self._next_fetch()
            s.awaiting = None
            return effects + self._finalize()
        return []

    def on_timer(self, event: TimerFired) -> List[Effect]:
        s = self.state
        if event.kind == "ack" and s.awaiting == "acks":
            outcome = "conflict" if s.nack_votes > 0 else "timeout"
            return self._fail_claim(outcome, "ack", event.now)
        if event.kind == "fetch" and s.awaiting == "fetch":
            return self._fail_claim("timeout", "fetch", event.now)
        if event.kind == "backoff" and s.phase == BACKOFF:
            s.phase = TOURING
            return [Visit()]
        return []

    def _majority_reached(self, now: float) -> List[Effect]:
        """Grant majority assembled: fetch RMW bases, then COMMIT."""
        s = self.state
        # The base-value source for each RMW key is the acknowledger
        # reporting the highest version — it holds "the most recent
        # copy" the quorum knows (paper §3.1).
        rmw_keys = sorted(
            {req[1] for req in s.requests if isinstance(req[2], Transform)}
        )
        plan: List[Tuple[str, str]] = []
        for key in rmw_keys:
            best_host, best_version = None, 0
            for host, versions in s.acked_versions.items():
                if versions.get(key, 0) >= best_version:
                    best_host, best_version = host, versions.get(key, 0)
            if best_version == 0:
                s.base_values[key] = None  # never written
                continue
            plan.append((key, best_host))
        s.fetch_plan = plan
        if plan:
            s.awaiting = "fetch"
            return self._next_fetch()
        s.awaiting = None
        return self._finalize()

    def _next_fetch(self) -> List[Effect]:
        s = self.state
        key, host = s.fetch_plan.pop(0)
        s.fetch_key = key
        return [
            Send(
                host,
                "READQ",
                {"request_id": (s.batch_id, s.epoch, key), "key": key},
            ),
            SetTimer("fetch", self.tunables.ack_timeout),
        ]

    def _finalize(self) -> List[Effect]:
        """[D3] version assignment + COMMIT broadcast + dispose."""
        s = self.state
        writes = self._assign_versions()
        s.phase = DONE
        return [
            Broadcast("COMMIT", self._payload(writes, behind=s.behind)),
            Note(
                "commit",
                ", ".join(f"{w.key}=v{w.version}" for w in writes),
            ),
            ClaimResolved("committed", s.epoch),
            Dispose("committed", writes),
        ]

    def _assign_versions(self) -> Tuple[WriteOp, ...]:
        """[D3]: next versions above everything known committed.

        The ceiling is the highest version this claim's ACKs report for
        the key. Any previous winner's grant at an ACKing server was
        released by the processing of its COMMIT, and its majority
        meets this one's, so the ACK quorum always reports every
        previously committed version — the ceiling is collision-free
        (docs/protocol.md §3 gives the premises).

        RMW requests chain: within a batch, each Transform sees the
        value produced by the previous write to the same key.
        """
        s = self.state
        next_version: Dict[str, int] = {}
        current_value: Dict[str, Any] = dict(s.base_values)
        writes: List[WriteOp] = []
        for req in s.requests:
            request_id, key, value = req[0], req[1], req[2]
            if key not in next_version:
                next_version[key] = 1 + max(
                    versions.get(key, 0)
                    for versions in s.acked_versions.values()
                )
            if isinstance(value, Transform):
                value = value(current_value.get(key))
            current_value[key] = value
            writes.append(
                WriteOp(
                    request_id=request_id,
                    key=key,
                    value=value,
                    version=next_version[key],
                )
            )
            next_version[key] += 1
        return tuple(writes)

    def _fail_claim(self, outcome: str, fired: Optional[str],
                    now: float) -> List[Effect]:
        """Release grants, then abort, or back off and retry.

        ``fired`` names the timer that caused the failure (its
        ``CancelTimer`` is skipped — it already fired).
        """
        s = self.state
        s.awaiting = None
        effects: List[Effect] = []
        if fired != "ack" and s.fetch_key is None:
            effects.append(CancelTimer("ack"))
        elif fired != "fetch" and s.fetch_key is not None:
            effects.append(CancelTimer("fetch"))
        effects.append(Broadcast("RELEASE", self._payload()))
        effects.append(ClaimResolved(outcome, s.epoch))
        # Later visits take grants at a fresh epoch, out of this
        # RELEASE's reach.
        s.epoch += 1
        if outcome == "conflict":
            # Another claimer holds grants: genuine contention counts
            # toward the abort budget.
            s.failed_claims += 1
            if s.failed_claims >= self.tunables.max_claims:
                s.phase = DONE
                effects.append(Broadcast("ABORT", self._payload()))
                effects.append(
                    Note("abort", f"{s.failed_claims} failed claims")
                )
                effects.append(Dispose("failed"))
                return effects
            backoff_mean = self.tunables.claim_backoff
        else:
            # Timeout with no NACKs: too few replicas are reachable to
            # assemble a majority (e.g. mid-outage). Quorum semantics
            # require stalling, not aborting — wait longer and retry
            # when the cluster may have healed.
            backoff_mean = max(
                4 * self.tunables.claim_backoff, self.tunables.park_timeout
            )
        s.phase = BACKOFF
        # The lock has to be re-acquired: a fresh lock-wait window opens.
        s.lock_wait_since = now
        effects.append(Backoff(backoff_mean))
        return effects
