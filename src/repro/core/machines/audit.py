"""The one consistency checker over committed histories (DESIGN.md §5).

Safety (Theorems 1-2; [D1] one owner per ``(key, version)``) is a
property of what the replicas committed, whatever delivered their
messages, so the checker reads plain data: each host's commits as
``(key, version, request_id, value repr, origin)`` tuples, each host's
final store cells as ``(key, version, value repr)`` — ``None`` for a
host that never reported one — and, optionally, each request's final
status. The DES audit (:func:`repro.analysis.consistency.audit`), the
live cluster's audit and the schedule adversary's ``check_schedule``
all call :func:`check_histories`, which walks each history once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Set, Tuple

__all__ = [
    "AuditReport", "check_histories", "commits_of", "store_cells",
]

#: One commit: ``(key, version, request_id, value repr, origin)``.
Commit = Tuple[str, int, int, str, str]
#: One final store cell: ``(key, version, value repr)``.
Cell = Tuple[str, int, str]


@dataclass
class AuditReport:
    """Outcome of one consistency audit.

    ``findings`` maps each check, by its field name, to the problems it
    found; ``problems`` is all of them, in check order.
    """

    #: all stores agree at the end, and every host reported one
    final_state_equal: bool
    #: no ``(key, version)`` has two ``(request, value)`` owners (the
    #: single-copy illusion; Available Copies breaks it under partition)
    divergence_free: bool
    #: each host applied strictly increasing versions per key
    monotone: bool
    #: every host holds every committed version (a crash, or a skipped
    #: superseded version, legitimately leaves gaps)
    complete: bool
    #: every host committed the same commits in the same order (the
    #: paper's "order preserving"; weakened by the same skips)
    identical_histories: bool
    total_commits: int
    findings: Dict[str, List[str]] = field(default_factory=dict)
    #: each key's committed versions, over all hosts, run 1, 2, ...
    gapless: bool = True
    #: (statuses given) a committed request owns a cell, a failed one none
    statuses_match: bool = True
    #: the global commit map, sorted: ``(key, version, request_id, value
    #: repr)`` per owner of each slot (plain data: it pickles)
    commit_slots: Tuple[Tuple[str, int, int, str], ...] = ()

    @property
    def problems(self) -> List[str]:
        return [p for found in self.findings.values() for p in found]

    @property
    def consistent(self) -> bool:
        """The invariants every (failure-free or recovered) run must hold."""
        return self.final_state_equal and self.divergence_free and self.monotone

    def __repr__(self) -> str:
        return (
            f"<AuditReport consistent={self.consistent} "
            f"final={self.final_state_equal} divergence_free={self.divergence_free} "
            f"monotone={self.monotone} complete={self.complete} "
            f"identical={self.identical_histories} gapless={self.gapless} "
            f"commits={self.total_commits}>"
        )


def commits_of(records: Iterable) -> Iterator[Commit]:
    """Commit records as commit tuples, lazily (one walk)."""
    return (
        (r.key, r.version, r.request_id, repr(r.value), r.origin)
        for r in records
    )


def store_cells(store) -> Tuple[Cell, ...]:
    """A ``VersionedStore``'s final cells, sorted."""
    return tuple(sorted(
        (key, vv.version, repr(vv.value))
        for key, vv in store.snapshot().items()
    ))


def check_histories(
    histories: Mapping[str, Iterable[Commit]],
    stores: Mapping[str, Optional[Iterable[Cell]]],
    statuses: Optional[Mapping[int, str]] = None,
) -> AuditReport:
    """Check every invariant over the hosts' histories and final stores.

    Both mappings are keyed by host; each history is iterated once, in
    commit order. ``statuses`` maps request ids to ``"committed"`` /
    ``"failed"`` (other values are not checked). Never raises.
    """
    final = [
        f"{host} reported no final state"
        for host, cells in stores.items() if cells is None
    ]
    finals = {
        host: tuple(sorted(cells))
        for host, cells in stores.items() if cells is not None
    }
    if len(set(finals.values())) > 1:
        final.append(
            "final states differ: "
            + "; ".join(f"{h}={cells}" for h, cells in finals.items())
        )
    monotone: List[str] = []
    # (key, version) -> its first owner (request_id, value repr); a slot
    # with a second owner also lands in ``contested``
    owner: Dict[Tuple[str, int], Tuple[int, str]] = {}
    contested: Dict[Tuple[str, int], Set[Tuple[int, str]]] = {}
    held: Dict[str, Set[Tuple[str, int]]] = {}
    reference: Optional[List[Commit]] = None
    identical = True
    for host, history in histories.items():
        chain = list(history)
        if reference is None:
            reference = chain
        elif chain != reference:
            identical = False
        last: Dict[str, int] = {}
        have = held[host] = set()
        for key, version, request_id, value, _origin in chain:
            prev = last.get(key, 0)
            if version <= prev:
                monotone.append(
                    f"{host}: non-monotone version {version} <= "
                    f"{prev} for key {key!r}"
                )
            last[key] = version
            slot = (key, version)
            have.add(slot)
            claim = (request_id, value)
            first = owner.setdefault(slot, claim)
            if first != claim:
                contested.setdefault(slot, {first}).add(claim)

    divergence = [
        f"two committed winners for round ({key!r}, v{version}): "
        f"{sorted(owners)}"
        for (key, version), owners in sorted(contested.items())
    ]
    complete = [
        f"{host} missing {len(owner) - len(have)} committed versions "
        f"(e.g. {sorted(owner.keys() - have)[:3]})"
        for host, have in held.items() if len(have) != len(owner)
    ]
    by_key: Dict[str, Set[int]] = {}
    for key, version in owner:
        by_key.setdefault(key, set()).add(version)
    gaps = [
        f"commit chain for {key!r} has gaps: {sorted(versions)} "
        f"(expected 1..{max(versions)})"
        for key, versions in sorted(by_key.items())
        if versions != set(range(1, max(versions) + 1))
    ]
    slots = tuple(
        (key, version, request_id, value)
        for (key, version), first in sorted(owner.items())
        for request_id, value in sorted(contested.get((key, version), (first,)))
    )
    ownership: List[str] = []
    if statuses is not None:
        cells_of: Dict[int, Set[Tuple[str, int]]] = {}
        for key, version, request_id, _value in slots:
            cells_of.setdefault(request_id, set()).add((key, version))
        for request_id, status in sorted(statuses.items()):
            if status == "committed" and request_id not in cells_of:
                ownership.append(
                    f"request {request_id} reported committed but owns no "
                    f"(key, version) cell on any replica"
                )
            if status == "failed" and request_id in cells_of:
                ownership.append(
                    f"request {request_id} aborted yet owns committed cells "
                    f"{sorted(cells_of[request_id])}"
                )

    findings = {
        "final_state_equal": final, "monotone": monotone,
        "divergence_free": divergence, "complete": complete,
        "gapless": gaps, "statuses_match": ownership,
    }
    return AuditReport(
        **{check: not found for check, found in findings.items()},
        identical_histories=identical, total_commits=len(owner),
        findings=findings, commit_slots=slots,
    )
