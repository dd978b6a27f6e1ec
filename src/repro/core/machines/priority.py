"""The distributed priority calculation (paper §3.3, Theorems 1–2).

Every agent evaluates :func:`decide` over its own Locking Table. The
rules, in order:

1. **Majority** — an agent that is effective-top at more than N/2 known
   servers holds the lock. Acting on this is safe even with stale views:
   an agent's set of topped servers only grows until it commits or its
   own entry lapses (appends go to the tail; removals delete finished or
   lapsed agents), so two self-observed majorities would intersect at a
   server topped by both — impossible, but for a lapsed agent, whose
   claim then meets the grants ([D1]).
2. **Paper tie-break** — with M agents tied at S top-ranks each and
   ``S + (N − M·S) < ⌈(N+1)/2⌉`` no tied agent can ever reach a
   majority; the tie is resolved by agent identifier (smallest wins).
3. **Complete-information tie-break ([D1])** — when views of *all* N
   servers are known (or the servers are declared unavailable) and the
   locking list of every available server is non-empty but no majority
   exists, the frozen tie is again resolved by identifier.

Crucially (deviation [D1], documented in DESIGN.md): a tie-break winner
does **not** act on its own authority — with stale views two agents
could crown different winners. The decision is returned as a
``STALEMATE`` naming the designee, who claims; the claim round's
exclusive grants admit at most one claimer. Rules 2–3 therefore drive
liveness, never safety.

Implementation: :func:`decide` evaluates the rule cascade over the
Locking Table's *packed* state (interned integer slots and a flag slab,
see :mod:`repro.core.machines.table`) and reads the top-per-host tally
the table maintains incrementally, so an evaluation costs the distinct
tops, not the hosts or the queues behind them.
Tie groups are ordered by the **AgentId's own total order** (an id is
its own sort key) — interned slot numbers never order anything.
The dataclass-and-dict evaluation it replaced is the executable
specification kept in ``tests/machines/``, where
``test_flat_structures.py`` property-checks ``decide`` equal to it over
randomized tables, weighted and unweighted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Tuple

from repro.core.machines.identity import AgentId
from repro.core.machines.table import LockingTable

__all__ = [
    "Decision", "decide", "rank_queue",
    "WIN", "OTHER", "STALEMATE", "UNDECIDED",
]

#: Outcomes of the priority calculation.
WIN = "win"
OTHER = "other"
STALEMATE = "stalemate"
UNDECIDED = "undecided"


@dataclass(slots=True)
class Decision:
    """Result of one priority evaluation (read-only by convention).

    Attributes
    ----------
    outcome:
        One of :data:`WIN` (self holds the lock), :data:`OTHER` (another
        agent holds it), :data:`STALEMATE` (frozen tie; ``winner`` names
        the tie-break designee), :data:`UNDECIDED`.
    winner:
        The agent the rule points at (None when undecided).
    reason:
        ``"majority"``, ``"paper-tie-break"``, ``"complete-info"`` or
        ``""``.
    quorum_hosts:
        For majority outcomes, the servers certifying the majority.
    """

    outcome: str
    winner: Optional[AgentId] = None
    reason: str = ""
    top_counts: Dict[AgentId, int] = field(default_factory=dict)
    quorum_hosts: Tuple[str, ...] = ()

    @property
    def decided(self) -> bool:
        return self.outcome != UNDECIDED


def decide(
    table: LockingTable,
    n_replicas: int,
    self_id: AgentId,
    votes: Optional[Mapping[str, int]] = None,
    extra_done: frozenset = frozenset(),
    unavailable: frozenset = frozenset(),
) -> Decision:
    """Evaluate the MARP priority rules for ``self_id``.

    Deterministic: agents with identical tables reach identical decisions
    (Theorem 1/2's agreement property — covered by property tests).

    ``unavailable`` lists replicas the agent has declared unavailable
    for this round after a failed migration (paper §2). They count
    toward the completeness requirement of the tie-break rules — with a
    replica down for good, no agent could ever assemble all N views and
    a top-rank split among the survivors would deadlock — and an empty
    locking list learned at one of them does not block Rule 3: nobody
    can join a list at a host that is down. Acting on a tie-break is
    grant-certified either way, so a wrong unavailability suspicion can
    cost a failed claim but never consistency.

    ``votes`` generalises the scheme to Gifford-style weighted voting
    (the paper's §5 "generic method" claim): topping a server earns that
    server's vote weight, and winning requires a strict majority of the
    total votes. The paper's early tie-break guard only applies to the
    unweighted case; weighted deployments rely on the complete-
    information rule (liveness is unaffected — the claim round's grants
    provide safety either way).
    """
    if n_replicas < 1:
        raise ValueError(f"n_replicas must be >= 1: {n_replicas}")
    if votes is None:
        majority = n_replicas // 2 + 1
    else:
        total_votes = sum(votes.values())
        if total_votes < 1:
            raise ValueError("total vote weight must be >= 1")
        majority = total_votes // 2 + 1
    reason, winner, counts, quorum = _decide_core(
        table, n_replicas, majority, extra_done, unavailable, votes
    )
    if reason == "majority":
        return Decision(
            outcome=WIN if winner == self_id else OTHER,
            winner=winner,
            reason="majority",
            top_counts=counts,
            quorum_hosts=quorum,
        )
    if winner is not None:
        return Decision(
            outcome=STALEMATE,
            winner=winner,
            reason=reason,
            top_counts=counts,
        )
    return Decision(outcome=UNDECIDED, top_counts=counts)


def _decide_core(
    table: LockingTable,
    n_replicas: int,
    majority: int,
    extra_done: frozenset,
    unavailable: frozenset,
    votes: Optional[Mapping[str, int]] = None,
):
    """The self-independent part of the rule cascade, over packed slots.

    Returns ``(reason, winner, top_counts, quorum_hosts)`` with
    ``reason`` in ``{"majority", "paper-tie-break", "complete-info",
    ""}`` and ``winner is None`` exactly when undecided.
    """
    tops_slots, topped = table._tops_slots(extra_done)
    if votes is None:
        counts_slots = {slot: len(hosts) for slot, hosts in topped.items()}
    else:
        # Topping a server earns its vote weight; a zero-vote top still
        # appears in the tally (with 0).
        counts_slots = {}
        for host, top in tops_slots.items():
            if top is not None:
                counts_slots[top] = counts_slots.get(top, 0) + votes.get(host, 0)
    value = table._ids.value
    counts = {value(slot): n for slot, n in counts_slots.items()}

    # Rule 1: majority of top-ranks (at most one candidate can qualify).
    for slot, n in counts_slots.items():
        if n >= majority:
            return ("majority", value(slot), counts, tuple(sorted(topped[slot])))

    known_or_unavailable = len(tops_slots)
    if unavailable:
        known_or_unavailable += sum(
            1 for host in unavailable if host not in tops_slots
        )
    if known_or_unavailable < n_replicas or not counts_slots:
        return ("", None, counts, ())

    # All N views known. Identify the leading tie group; the designee is
    # the smallest by the AgentId's own total order, never by slot.
    top_score = max(counts_slots.values())
    tied = [s for s, n in counts_slots.items() if n == top_score]
    winner_slot = min(tied, key=value)
    m_tied = len(tied)

    # Rule 2: the paper's early tie-break guard (unweighted only). Even
    # if a tied agent captured every server not currently topped by the
    # tie group it could not reach a majority, so waiting cannot resolve
    # the tie.
    unclaimed = n_replicas - m_tied * top_score
    if votes is None and m_tied > 1 and top_score + unclaimed < majority:
        return ("paper-tie-break", value(winner_slot), counts, ())

    # Rule 3 ([D1]): complete information, every list of an available
    # host non-empty, no majority -> frozen stalemate; designate by
    # identifier. An empty list at an available host can still gain a
    # top (a new arrival), so keep gathering; nobody joins one at a
    # host declared down for the round.
    for host, top in tops_slots.items():
        if top is None and host not in unavailable:
            return ("", None, counts, ())
    return ("complete-info", value(winner_slot), counts, ())


def rank_queue(
    table: LockingTable,
    n_replicas: int,
    limit: Optional[int] = None,
    votes: Optional[Mapping[str, int]] = None,
) -> Tuple[AgentId, ...]:
    """Predict the lock-grant order — the paper's pipelining extension.

    Paper §3.3: the algorithm "can be extended so that mobile agents can
    determine not only the first mobile agent who will obtain the lock
    next, but also the second agent, the third agent, etc." Successive
    winners are computed by repeatedly evaluating the decision rules
    while treating earlier predicted winners as already finished.

    The prediction is exact for the lock state the table knows about
    (agents not yet enqueued can only join behind), and like the decision
    itself it is a pure function of the table — every agent with the same
    information predicts the same order (the agreement property,
    property-tested).
    """
    order = []
    done: set = set()
    probe = AgentId("\x00rank-probe", float("-inf"), 0)  # never a winner
    while limit is None or len(order) < limit:
        decision = decide(
            table, n_replicas, probe, votes=votes,
            extra_done=frozenset(done),
        )
        if decision.winner is None or decision.winner in done:
            break
        order.append(decision.winner)
        done.add(decision.winner)
    return tuple(order)
