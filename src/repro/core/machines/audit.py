"""The one consistency checker over committed histories (DESIGN.md §5).

Safety (Theorems 1-2; [D1] one owner per ``(key, version)``) is a
property of what the replicas committed, whatever delivered their
messages, so the checker reads plain data: each host's commits as
``(key, version, request_id, value repr, origin)`` tuples, each host's
final store cells as ``(key, version, value repr)`` — ``None`` for a
host that never reported one — and, optionally, each request's final
status. :class:`HistoryCheck` takes one commit at a time, so a
streaming run feeds it at every apply; :func:`check_histories` feeds it
stored histories for the DES audit
(:func:`repro.analysis.consistency.audit`), the live cluster's audit
and the schedule adversary's ``check_schedule``.

A ``(key, version)`` slot settles once every audited host has applied
that key at or past its version: no host can apply it again without
breaking monotonicity, so whether every host holds it, and whether it
is a gap, is decided then and the slot is forgotten (as Sutra–Shapiro
drop a stable operation). The checker holds O(keys × hosts + slots in
flight), not O(commits).
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Set, Tuple

__all__ = [
    "AuditReport", "HistoryCheck", "check_histories", "commits_of",
    "store_cells",
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


class _Chain:
    """One key's unsettled commits."""

    __slots__ = ("last", "slots", "settled", "waiting")

    def __init__(self, hosts: int) -> None:
        self.last = [0] * hosts  # each host's last applied version
        #: version -> ``[request_id, value repr, mask of the hosts that
        #: applied it]`` for each version above ``settled``
        self.slots: Dict[int, list] = {}
        self.settled = 0  # every version up to here is decided
        self.waiting = hosts  # hosts not past ``settled``


class HistoryCheck:
    """The consistency checker, fed one commit at a time.

    Call :meth:`applied` once per commit, in each host's own commit
    order (hosts interleave freely), then :meth:`report`. It owns every
    verdict but ``statuses_match`` and the commit map, which need whole
    histories. ``identical_histories`` compares the hosts position by
    position, holding a commit until every host has passed its position.
    """

    def __init__(self, hosts: Iterable[str]) -> None:
        self.hosts = tuple(hosts)
        self._index = {host: i for i, host in enumerate(self.hosts)}
        self._everyone = (1 << len(self.hosts)) - 1
        self._chains: Dict[str, _Chain] = {}
        self.total_commits = 0  # distinct (key, version) slots
        self._monotone: List[str] = []
        #: slot -> its ``(request_id, value repr)`` owners, if two or more
        self._contested: Dict[Tuple[str, int], Set[Tuple[int, str]]] = {}
        #: per host: how many settled slots it lacks, and the first three
        self._missed = [0] * len(self.hosts)
        self._examples: List[List[Tuple[str, int]]] = [[] for _ in self.hosts]
        self._gaps: Dict[str, List[int]] = {}  # key -> versions none applied
        self._lengths = [0] * len(self.hosts)  # each host's commit count
        #: position -> ``[commit, hosts past it]``, till all hosts are
        self._trail: Dict[int, list] = {}
        self._identical = True

    def applied(
        self, host: str, key: str, version: int, request_id: int,
        value: str, origin: str,
    ) -> None:
        """``host`` committed ``value`` (a repr) as ``(key, version)``."""
        i = self._index[host]
        if self._identical:  # compare with the hosts' commit at its position
            position = self._lengths[i]
            self._lengths[i] = position + 1
            commit = (key, version, request_id, value, origin)
            entry = self._trail.get(position)
            if entry is None:
                if len(self.hosts) > 1:
                    self._trail[position] = [commit, 1]
            elif entry[0] != commit:
                self._identical = False
                self._trail.clear()
            elif entry[1] + 1 == len(self.hosts):
                del self._trail[position]
            else:
                entry[1] += 1
        chain = self._chains.get(key)
        if chain is None:
            chain = self._chains[key] = _Chain(len(self.hosts))
        last = chain.last
        prev = last[i]
        last[i] = version
        if version <= prev:
            self._monotone.append(
                f"{host}: non-monotone version {version} <= {prev} "
                f"for key {key!r}"
            )
            if version <= chain.settled:
                return  # its slot is forgotten; the finding above stands
        slot = chain.slots.get(version)
        if slot is None:
            chain.slots[version] = [request_id, value, 1 << i]
            self.total_commits += 1
        else:
            slot[2] |= 1 << i
            if slot[0] != request_id or slot[1] != value:
                self._contested.setdefault(
                    (key, version), {(slot[0], slot[1])}
                ).add((request_id, value))
        if prev <= chain.settled < version:  # host i is past ``settled``
            chain.waiting -= 1
            if chain.waiting <= 0:
                self._settle(key, chain, min(last))

    def _settle(self, key: str, chain: _Chain, upto: int) -> None:
        """Decide ``key``'s versions up to ``upto`` and forget them: a
        version no host applied is a gap, and a slot is missing at each
        host that did not apply it."""
        for version in range(chain.settled + 1, upto + 1):
            slot = chain.slots.pop(version, None)
            if slot is None:
                self._gaps.setdefault(key, []).append(version)
            elif slot[2] != self._everyone:
                for i, examples in enumerate(self._examples):
                    if not slot[2] >> i & 1:
                        self._missed[i] += 1
                        insort(examples, (key, version))
                        del examples[3:]
        chain.settled = max(chain.settled, upto)
        chain.waiting = sum(seen <= chain.settled for seen in chain.last)

    def open_slots(self) -> int:
        """Slots fed but not settled yet."""
        return sum(len(chain.slots) for chain in self._chains.values())

    def report(self, stores: Mapping[str, Optional[Iterable[Cell]]]) -> AuditReport:
        """The verdicts over the commits fed and the final ``stores``
        (by host). Call after the last commit: it settles every open
        slot as it stands. Never raises."""
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
        for key, chain in self._chains.items():
            self._settle(key, chain, max(chain.last))
        findings = {
            "final_state_equal": final,
            "monotone": list(self._monotone),
            "divergence_free": [
                f"two committed winners for round ({key!r}, v{version}): "
                f"{sorted(owners)}"
                for (key, version), owners in sorted(self._contested.items())
            ],
            "complete": [
                f"{host} missing {count} committed versions (e.g. {found})"
                for host, count, found in zip(
                    self.hosts, self._missed, self._examples,
                ) if count
            ],
            "gapless": [
                f"commit chain for {key!r} has gaps: versions {versions} "
                f"of 1..{self._chains[key].settled} were never committed"
                for key, versions in sorted(self._gaps.items())
            ],
            "statuses_match": [],
        }
        return AuditReport(
            **{check: not found for check, found in findings.items()},
            identical_histories=(
                self._identical and len(set(self._lengths)) <= 1
            ),
            total_commits=self.total_commits, findings=findings,
        )


def check_histories(
    histories: Mapping[str, Iterable[Commit]],
    stores: Mapping[str, Optional[Iterable[Cell]]],
    statuses: Optional[Mapping[int, str]] = None,
) -> AuditReport:
    """Check every invariant over the hosts' histories and final stores.

    Both mappings are keyed by host; each history is iterated once, in
    commit order, through one :class:`HistoryCheck`. ``statuses`` maps
    request ids to ``"committed"`` / ``"failed"`` (other values are not
    checked) against the commit map. Never raises.
    """
    check = HistoryCheck(histories)
    owners: Set[Tuple[str, int, int, str]] = set()
    for host, history in histories.items():
        for commit in history:
            check.applied(host, *commit)
            owners.add(commit[:4])
    report = check.report(stores)
    report.commit_slots = tuple(sorted(owners))
    ownership = report.findings["statuses_match"]
    if statuses is not None:
        cells_of: Dict[int, Set[Tuple[str, int]]] = {}
        for key, version, request_id, _value in report.commit_slots:
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
    report.statuses_match = not ownership
    return report
