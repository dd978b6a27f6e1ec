"""Post-run consistency audits of a DES deployment (DESIGN.md §5).

:func:`audit` runs the kernel's one checker,
:func:`repro.core.machines.audit.check_histories`, over every replica's
commit history and final store. Streaming runs keep no histories:
:class:`ChainDigest` folds each commit into rolling chain digests as it
applies, and :func:`streaming_audit` reads the same report off them.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List

from repro.core.machines.audit import (
    AuditReport, check_histories, commits_of, store_cells,
)
from repro.errors import ConsistencyViolation
from repro.replication.deployment import Deployment

__all__ = [
    "AuditReport", "audit", "assert_consistent",
    "ChainDigest", "commit_token", "streaming_audit",
]


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
    like :func:`~repro.experiments.runner.result_payload` records. Two
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
    produce identical chains. The final stores go through the checker;
    ``gapless`` and the commit map are left at their defaults.
    """
    excluded = set(exclude)
    hosts = [h for h in deployment.hosts if h not in excluded]
    final = check_histories(
        {}, {host: store_cells(deployment.server(host).store) for host in hosts}
    )

    audited = [digests[host] for host in hosts if host in digests]
    monotone = [p for digest in audited for p in digest.problems]

    whole = {digest.whole_digest() for digest in audited}
    chains_equal = (
        len({digest.fingerprint() for digest in audited}) <= 1
    )
    chains = [] if chains_equal else [
        "per-key chain digests differ across replicas (streaming "
        "audit cannot distinguish divergence from benign history "
        "gaps; rerun with full records to classify)"
    ]

    return AuditReport(
        final_state_equal=final.final_state_equal,
        divergence_free=chains_equal,
        monotone=all(digest.monotone for digest in audited),
        complete=chains_equal,
        identical_histories=len(whole) <= 1,
        total_commits=max(
            (digest.commits for digest in audited), default=0
        ),
        findings={
            "final_state_equal": final.findings["final_state_equal"],
            "monotone": monotone,
            "divergence_free": chains,
        },
    )


def audit(deployment: Deployment, exclude=()) -> AuditReport:
    """Audit the replicas of a deployment. Never raises.

    ``exclude`` names replicas to leave out — hosts that are down at
    audit time and will only converge after a recovery sync that cannot
    happen within the run (e.g. the permanently crashed replicas of the
    availability experiment).
    """
    excluded = set(exclude)
    servers = [
        (host, deployment.server(host))
        for host in deployment.hosts if host not in excluded
    ]
    return check_histories(
        {host: commits_of(server.history) for host, server in servers},
        {host: store_cells(server.store) for host, server in servers},
    )


def assert_consistent(deployment: Deployment) -> AuditReport:
    """Audit and raise :class:`ConsistencyViolation` on failure."""
    report = audit(deployment)
    if not report.consistent:
        raise ConsistencyViolation(
            "consistency audit failed:\n  " + "\n  ".join(report.problems)
        )
    return report
