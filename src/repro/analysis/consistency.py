"""Consistency audits of a DES deployment (DESIGN.md §5).

Every audit runs the kernel's one checker,
:class:`repro.core.machines.audit.HistoryCheck`. :func:`audit` feeds it
every replica's stored commit history after the run, through
:func:`~repro.core.machines.audit.check_histories`. A streaming run
keeps no histories: :func:`stream_histories` feeds the checker at every
apply, and folds each replica's commits into a :class:`ChainDigest`.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, Optional, Tuple

from repro.core.machines.audit import (
    AuditReport, HistoryCheck, check_histories, commits_of, store_cells,
)
from repro.errors import ConsistencyViolation, ReplicationError
from repro.replication.deployment import Deployment

__all__ = [
    "AuditReport", "audit", "assert_consistent",
    "ChainDigest", "commit_token", "final_cells", "stream_histories",
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
    """A streaming replica's history sink: a sha256 digest of its whole
    commit chain (what :attr:`RunResult.chain_digests` carries), which
    hands each commit on to the run's checkers. No chain is stored.

    Each commit folds the canonical token
    ``[key, version, request_id - id_base, repr(value), origin]``.
    ``committed_at`` is left out: apply times legitimately differ across
    replicas and backends. Request ids come from a process-global
    counter, so ``id_base`` (the run's first request id, supplied by
    the runner) normalises them, as
    :func:`~repro.experiments.runner.result_payload` does: the digests
    of a seeded run are byte-identical in the serial path, a pool worker
    and a fresh interpreter, and replaying a stored history through a
    fresh ``ChainDigest`` with the same ``id_base`` reproduces them.
    """

    def __init__(self, host: str, id_base: int = 0, checks=()) -> None:
        self.host = host
        self.id_base = id_base
        self._whole = hashlib.sha256()
        self._feeds = [check.applied for check in checks]

    def observe(self, record) -> None:
        """Fold one commit (call in local apply order)."""
        value = repr(record.value)
        self._whole.update(commit_token(
            record.key, record.version, record.request_id - self.id_base,
            value, record.origin,
        ))
        for applied in self._feeds:
            applied(self.host, record.key, record.version,
                    record.request_id, value, record.origin)

    def whole_digest(self) -> str:
        """Rolling digest of the full commit sequence (order-sensitive)."""
        return self._whole.hexdigest()


def stream_histories(
    deployment: Deployment, id_base: int, exclude=(),
) -> Tuple[Dict[str, ChainDigest], HistoryCheck, Optional[HistoryCheck]]:
    """Audit a run as it applies: each replica's history streams its
    commits into a :class:`ChainDigest`, which feeds one
    :class:`HistoryCheck` over all hosts and, when ``exclude`` names
    hosts, a second one over the rest. Call before the first commit.
    The store's applied log, the last O(requests) retainer, is bounded
    too: no audit reads it.
    """
    check = HistoryCheck(deployment.hosts)
    rest = HistoryCheck(
        host for host in deployment.hosts if host not in exclude
    ) if exclude else None
    digests: Dict[str, ChainDigest] = {}
    for host in deployment.hosts:
        digest = digests[host] = ChainDigest(host, id_base, [
            audit for audit in (check, rest)
            if audit is not None and host in audit.hosts
        ])
        server = deployment.server(host)
        server.history.stream_to(digest.observe)
        server.store.bound_applied_log()
    return digests, check, rest


def final_cells(deployment: Deployment, hosts) -> Dict[str, Tuple]:
    """The named replicas' final store cells, by host."""
    return {host: store_cells(deployment.server(host).store) for host in hosts}


def audit(deployment: Deployment, exclude=()) -> AuditReport:
    """Audit the stored histories of a deployment's replicas.

    ``exclude`` names replicas to leave out — hosts that are down at
    audit time and will only converge after a recovery sync that cannot
    happen within the run (e.g. the permanently crashed replicas of the
    availability experiment).

    Raises :class:`ReplicationError` when a replica streamed its history
    instead of storing it (:func:`stream_histories`): there is nothing
    here to audit, and that run's audit is its ``RunResult.audit``.
    """
    hosts = [host for host in deployment.hosts if host not in exclude]
    streamed = [
        host for host in hosts if deployment.server(host).history.streaming
    ]
    if streamed:
        raise ReplicationError(
            f"{', '.join(streamed)} streamed their histories, which were "
            "audited as they applied: read RunResult.audit"
        )
    return check_histories(
        {host: commits_of(deployment.server(host).history) for host in hosts},
        final_cells(deployment, hosts),
    )


def assert_consistent(deployment: Deployment) -> AuditReport:
    """Audit and raise :class:`ConsistencyViolation` on failure."""
    report = audit(deployment)
    if not report.consistent:
        raise ConsistencyViolation(
            "consistency audit failed:\n  " + "\n  ".join(report.problems)
        )
    return report
