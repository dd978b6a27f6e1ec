"""Executable specification of :func:`repro.core.machines.priority.decide`.

The original dataclass-and-dict evaluation of the priority rules, kept
out of the package: production has one ``decide`` (over the Locking
Table's packed slots), and ``test_flat_structures.py`` holds it equal to
this one over randomized tables, weighted and unweighted.
"""

from collections import Counter
from typing import Mapping, Optional

from repro.core.machines.identity import AgentId
from repro.core.machines.priority import OTHER, STALEMATE, UNDECIDED, WIN, Decision
from repro.core.machines.table import LockingTable


def decide_reference(
    table: LockingTable,
    n_replicas: int,
    self_id: AgentId,
    votes: Optional[Mapping[str, int]] = None,
    extra_done: frozenset = frozenset(),
    unavailable: frozenset = frozenset(),
) -> Decision:
    """The rule cascade through the table's public dataclass API only."""
    if n_replicas < 1:
        raise ValueError(f"n_replicas must be >= 1: {n_replicas}")
    tops = table.tops(extra_done)
    if votes is None:
        majority = n_replicas // 2 + 1
        counts = table.top_counts(extra_done)
    else:
        total_votes = sum(votes.values())
        if total_votes < 1:
            raise ValueError("total vote weight must be >= 1")
        majority = total_votes // 2 + 1
        counts = Counter()
        for host, top in tops.items():
            if top is not None:
                counts[top] += votes.get(host, 0)

    # Rule 1: majority of top-ranks.
    for agent_id, count in counts.items():
        if count >= majority:
            quorum = tuple(
                sorted(h for h, top in tops.items() if top == agent_id)
            )
            outcome = WIN if agent_id == self_id else OTHER
            return Decision(
                outcome=outcome,
                winner=agent_id,
                reason="majority",
                top_counts=dict(counts),
                quorum_hosts=quorum,
            )

    known_or_unavailable = len(tops) + len(unavailable - set(tops))
    if known_or_unavailable < n_replicas or not counts:
        return Decision(outcome=UNDECIDED, top_counts=dict(counts))

    # All N views known. Identify the leading tie group.
    top_score = max(counts.values())
    tied = sorted(a for a, c in counts.items() if c == top_score)
    m_tied = len(tied)

    # Rule 2: the paper's early tie-break guard (unweighted only). Even
    # if a tied agent captured every server not currently topped by the
    # tie group it could not reach a majority, so waiting cannot resolve
    # the tie.
    unclaimed = n_replicas - m_tied * top_score
    if votes is None and m_tied > 1 and top_score + unclaimed < majority:
        return Decision(
            outcome=STALEMATE,
            winner=tied[0],
            reason="paper-tie-break",
            top_counts=dict(counts),
        )

    # Rule 3 ([D1]): complete information, every list non-empty, no
    # majority -> frozen stalemate; designate by identifier.
    if all(top is not None for top in tops.values()):
        return Decision(
            outcome=STALEMATE,
            winner=tied[0],
            reason="complete-info",
            top_counts=dict(counts),
        )

    # Some locking list is empty: tops can still change freely (a new
    # arrival becomes top there), so keep gathering.
    return Decision(outcome=UNDECIDED, top_counts=dict(counts))
