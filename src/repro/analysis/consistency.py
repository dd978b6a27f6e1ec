"""Post-run consistency audits (DESIGN.md §5).

The auditor inspects every replica's store and commit history after a
run and checks, in decreasing order of strength:

* **identical histories** — every replica committed exactly the same
  sequence (the paper's "order preserving" claim; can legitimately be
  weakened by in-flight COMMIT reordering on heavy-tailed links, where a
  replica skips a superseded version);
* **divergence-free** — the same ``(key, version)`` never maps to
  different requests/values at different replicas (the single-copy
  illusion; violated e.g. by Available Copies under partition);
* **monotone** — each replica applied strictly increasing versions per
  key;
* **complete** — every replica holds every committed version (write-all
  application; gaps arise from crashes or skipped superseded versions);
* **final-state equality** — all stores agree at quiescence.

``consistent`` (the invariant every run must satisfy) requires
divergence-free + monotone + final-state equality.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.errors import ConsistencyViolation
from repro.replication.deployment import Deployment

__all__ = [
    "AuditReport", "audit", "assert_consistent", "commit_slots",
    "ChainDigest", "commit_token", "streaming_audit",
]


@dataclass
class AuditReport:
    """Outcome of one consistency audit."""

    final_state_equal: bool
    divergence_free: bool
    monotone: bool
    complete: bool
    identical_histories: bool
    total_commits: int
    problems: List[str] = field(default_factory=list)

    @property
    def consistent(self) -> bool:
        """The invariants every (failure-free or recovered) run must hold."""
        return self.final_state_equal and self.divergence_free and self.monotone

    def __repr__(self) -> str:
        return (
            f"<AuditReport consistent={self.consistent} "
            f"final={self.final_state_equal} divergence_free={self.divergence_free} "
            f"monotone={self.monotone} complete={self.complete} "
            f"identical={self.identical_histories} commits={self.total_commits}>"
        )


_quote = json.encoder.encode_basestring_ascii


def commit_token(key, version, offset, value_repr, origin) -> bytes:
    """The bytes :class:`ChainDigest` folds for one commit: the compact
    JSON array ``[key, version, offset, value_repr, origin]``.

    For the shape every commit has — three strings and two ints — the
    array is written out directly, byte for byte what ``json.dumps``
    gives (``ensure_ascii`` quoting, ``int.__repr__`` numbers); any
    other shape goes through ``json.dumps``, which builds an encoder
    per call.
    """
    if (
        key.__class__ is str and version.__class__ is int
        and offset.__class__ is int and value_repr.__class__ is str
        and origin.__class__ is str
    ):
        text = (
            f"[{_quote(key)},{version!r},{offset!r},"
            f"{_quote(value_repr)},{_quote(origin)}]"
        )
    else:
        text = json.dumps(
            [key, version, offset, value_repr, origin],
            separators=(",", ":"),
        )
    return text.encode("utf-8")


class ChainDigest:
    """Incremental sha256 commit-chain fingerprint for one replica.

    Attached as a :meth:`HistoryLog.stream_to` sink, it folds each
    :class:`~repro.core.machines.structures.CommitRecord` into a rolling
    whole-history digest and per-key chain digests the moment the commit
    applies — no chain is ever stored, so streaming runs audit
    consistency in O(keys) memory instead of O(commits).

    Each commit contributes the canonical token
    ``[key, version, request_id - id_base, repr(value), origin]``.
    ``committed_at`` is deliberately excluded: apply times legitimately
    differ across replicas (and backends), while the token fields must
    not. Request ids come from a process-global counter, so ``id_base``
    (the run's first request id, supplied by the runner) normalises
    them — digests of the same seeded run are then byte-identical in
    the serial path, a pool worker and a fresh interpreter, exactly
    like :func:`~repro.experiments.cache.result_payload` records. Two
    replicas that committed the same chains therefore produce identical
    digests, and replaying a *stored* history through a fresh
    ``ChainDigest`` with the same ``id_base`` reproduces the in-run
    incremental digest exactly — the parity property the streaming
    tests pin.
    """

    def __init__(self, host: str, id_base: int = 0) -> None:
        self.host = host
        self.id_base = id_base
        self._whole = hashlib.sha256()
        self._per_key: Dict[str, "hashlib._Hash"] = {}
        self._last_version: Dict[str, int] = {}
        self.commits = 0
        self.monotone = True
        self.problems: List[str] = []

    def observe(self, record) -> None:
        """Fold one commit (call in local apply order)."""
        key = record.key
        version = record.version
        prev = self._last_version.get(key, 0)
        if version <= prev:
            self.monotone = False
            if len(self.problems) < 8:
                self.problems.append(
                    f"{self.host}: non-monotone version {version} <= "
                    f"{prev} for key {key!r}"
                )
        self._last_version[key] = version
        token = commit_token(
            key, version, record.request_id - self.id_base,
            repr(record.value), record.origin,
        )
        self._whole.update(token)
        per_key = self._per_key.get(key)
        if per_key is None:
            per_key = self._per_key[key] = hashlib.sha256()
        per_key.update(token)
        self.commits += 1

    # Also usable directly as a HistoryLog sink.
    __call__ = observe

    def whole_digest(self) -> str:
        """Rolling digest of the full commit sequence (order-sensitive)."""
        return self._whole.hexdigest()

    def per_key_digests(self) -> Dict[str, str]:
        return {key: h.hexdigest() for key, h in self._per_key.items()}

    def fingerprint(self) -> str:
        """Canonical fingerprint over the per-key chain digests."""
        text = json.dumps(
            self.per_key_digests(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    def __repr__(self) -> str:
        return (
            f"<ChainDigest {self.host!r} commits={self.commits} "
            f"monotone={self.monotone}>"
        )


def streaming_audit(
    deployment: Deployment, digests: Dict[str, ChainDigest], exclude=()
) -> AuditReport:
    """Audit a streaming run from rolling chain digests. Never raises.

    Same report shape as :func:`audit`, computed without stored
    histories. ``final_state_equal`` and ``monotone`` are exact (stores
    are O(keys) and stay resident; monotonicity was checked per-commit
    by each digest). ``identical_histories``, ``divergence_free`` and
    ``complete`` are all derived from digest equality, which is a
    *stricter* approximation: identical per-key chains imply all three,
    but a run the batch auditor would classify as divergence-free with
    merely non-identical histories (e.g. a benignly skipped superseded
    version) reports all three False here, with a problem entry saying
    so. Fault-free scale runs — the streaming mode's use case — always
    produce identical chains.
    """
    excluded = set(exclude)
    hosts = [h for h in deployment.hosts if h not in excluded]
    problems: List[str] = []

    finals = {}
    for host in hosts:
        snapshot = deployment.server(host).store.snapshot()
        finals[host] = tuple(
            sorted(
                (key, vv.version, repr(vv.value))
                for key, vv in snapshot.items()
            )
        )
    final_state_equal = len(set(finals.values())) <= 1
    if not final_state_equal:
        problems.append(
            "final states differ: "
            + "; ".join(f"{h}={finals[h]}" for h in hosts)
        )

    audited = [digests[host] for host in hosts if host in digests]
    monotone = all(digest.monotone for digest in audited)
    for digest in audited:
        problems.extend(digest.problems)

    whole = {digest.whole_digest() for digest in audited}
    identical_histories = len(whole) <= 1
    chains_equal = (
        len({digest.fingerprint() for digest in audited}) <= 1
    )
    if not chains_equal:
        problems.append(
            "per-key chain digests differ across replicas (streaming "
            "audit cannot distinguish divergence from benign history "
            "gaps; rerun with full records to classify)"
        )

    return AuditReport(
        final_state_equal=final_state_equal,
        divergence_free=chains_equal,
        monotone=monotone,
        complete=chains_equal,
        identical_histories=identical_histories,
        total_commits=max(
            (digest.commits for digest in audited), default=0
        ),
        problems=problems,
    )


def audit(deployment: Deployment, exclude=()) -> AuditReport:
    """Audit the replicas of a deployment. Never raises.

    ``exclude`` names replicas to leave out — hosts that are down at
    audit time and will only converge after a recovery sync that cannot
    happen within the run (e.g. the permanently crashed replicas of the
    availability experiment).
    """
    excluded = set(exclude)
    hosts = [h for h in deployment.hosts if h not in excluded]
    problems: List[str] = []

    # --- final-state equality ------------------------------------------------
    finals = {}
    for host in hosts:
        snapshot = deployment.server(host).store.snapshot()
        finals[host] = tuple(
            sorted(
                (key, vv.version, repr(vv.value))
                for key, vv in snapshot.items()
            )
        )
    final_state_equal = len(set(finals.values())) <= 1
    if not final_state_equal:
        problems.append(
            "final states differ: "
            + "; ".join(f"{h}={finals[h]}" for h in hosts)
        )

    # --- per-replica monotonicity ------------------------------------------
    monotone = True
    for host in hosts:
        last_version: Dict[str, int] = {}
        for record in deployment.server(host).history:
            prev = last_version.get(record.key, 0)
            if record.version <= prev:
                monotone = False
                problems.append(
                    f"{host}: non-monotone version {record.version} <= "
                    f"{prev} for key {record.key!r}"
                )
            last_version[record.key] = record.version

    # --- divergence: (key, version) -> (request, value) must be global ----
    divergence_free = True
    seen: Dict[Tuple[str, int], Tuple[int, str, str]] = {}
    for host in hosts:
        for record in deployment.server(host).history:
            slot = (record.key, record.version)
            claim = (record.request_id, repr(record.value), host)
            prior = seen.get(slot)
            if prior is None:
                seen[slot] = claim
            elif prior[:2] != claim[:2]:
                divergence_free = False
                problems.append(
                    f"divergent commit at {slot}: {prior} vs {claim}"
                )

    # --- completeness: every replica has every committed version ----------
    committed_slots = set(seen)
    complete = True
    for host in hosts:
        have = {
            (r.key, r.version) for r in deployment.server(host).history
        }
        missing = committed_slots - have
        if missing:
            complete = False
            problems.append(
                f"{host} missing {len(missing)} committed versions "
                f"(e.g. {sorted(missing)[:3]})"
            )

    # --- identical full histories ------------------------------------------
    identities = {
        host: tuple(deployment.server(host).history.identities())
        for host in hosts
    }
    identical_histories = len(set(identities.values())) <= 1

    return AuditReport(
        final_state_equal=final_state_equal,
        divergence_free=divergence_free,
        monotone=monotone,
        complete=complete,
        identical_histories=identical_histories,
        total_commits=len(committed_slots),
        problems=problems,
    )


def commit_slots(deployment: Deployment) -> Tuple[Tuple[str, int, int, str], ...]:
    """The global commit map: one ``(key, version, request_id, value)``
    per committed version slot, deduplicated across replicas and sorted.

    Under the paper's Theorems 1/2 every conflict round elects exactly
    one winner, so each ``(key, version)`` slot is owned by exactly one
    request — the property-test suite asserts this on the returned
    tuple. Unlike a live :class:`Deployment`, the tuple is plain data:
    it survives pickling across process-pool workers and the result
    cache, so theorem checks run identically on serial, parallel and
    cached results.
    """
    claims: Dict[Tuple[str, int], set] = {}
    for host in deployment.hosts:
        for record in deployment.server(host).history:
            slot = (record.key, record.version)
            claims.setdefault(slot, set()).add(
                (record.request_id, repr(record.value))
            )
    # A divergent run (two owners for one slot) yields one tuple entry
    # per claimed owner, so uniqueness violations stay visible.
    return tuple(
        (key, version, request_id, value)
        for (key, version), owners in sorted(claims.items())
        for request_id, value in sorted(owners)
    )


def assert_consistent(deployment: Deployment) -> AuditReport:
    """Audit and raise :class:`ConsistencyViolation` on failure."""
    report = audit(deployment)
    if not report.consistent:
        raise ConsistencyViolation(
            "consistency audit failed:\n  " + "\n  ".join(report.problems)
        )
    return report
