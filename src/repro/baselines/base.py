"""Shared machinery for the message-passing baseline protocols.

The paper argues (§1) that conventional replication protocols are
expensive because "multiple local processes need to participate in
sessions of passing messages and waiting for replies" with "several
rounds of message exchange". To quantify that claim (experiments T1/T2
in DESIGN.md) we implement the classic protocols the paper cites over
the *same* deployment substrate as MARP:

* every host runs a :class:`BaselineDaemon` — the stationary process that
  votes/locks/applies on behalf of the protocol;
* writes are driven by a coordinator process at the request's home server
  using rounds of ``LOCK → GRANT/NACK → APPLY`` (or ``ABORT`` + retry)
  messages, with per-key leases and epoch-tagged replies so stale
  messages from abandoned rounds are ignored;
* stores/histories are the very same per-replica objects MARP uses, so
  the consistency auditor applies unchanged.

Message kinds are prefixed per protocol (``MCV_LOCK``, ``WV_GRANT``, …)
so daemons coexist with the MARP replica server on the same endpoints.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Dict, Optional, Set, Tuple

from repro.net.message import Message
from repro.replication.deployment import Deployment
from repro.core.machines.structures import CommitRecord
from repro.replication.protocol import ReplicationProtocol
from repro.replication.requests import RequestRecord
from repro.replication.server import WriteOp

__all__ = ["BaselineDaemon", "QuorumProtocol"]

#: Correlation keys of the coordinators' replies (see Network.route):
#: a lock round reads its own GRANT/NACKs, a quorum read its own RVALs.
_ROUND_KEY = itemgetter("rid", "epoch")
_RID_KEY = itemgetter("rid")


class BaselineDaemon:
    """Per-host stationary process of a message-passing protocol."""

    def __init__(self, protocol: "QuorumProtocol", host: str) -> None:
        self.protocol = protocol
        self.host = host
        self.env = protocol.env
        self.network = protocol.deployment.network
        self.endpoint = protocol.deployment.network.endpoints[host]
        self.server = protocol.deployment.server(host)
        prefix = protocol.prefix
        # key -> (holder rid, holder epoch, lease expiry). The epoch
        # guards against a retry's LOCK overtaking the previous
        # attempt's ABORT in the network: a release may only clear a
        # grant from the same or a later epoch.
        self.locks: Dict[str, Tuple[int, int, float]] = {}
        self.grants_given = 0
        self.nacks_given = 0
        #: handled one at a time, in arrival order across kinds
        handlers = {
            f"{prefix}_LOCK": self._on_lock,
            f"{prefix}_APPLY": self._on_apply,
            f"{prefix}_ABORT": self._on_abort,
            f"{prefix}_READV": self._on_readv,
        }
        self.endpoint.serve(
            tuple(handlers),
            lambda _msg: self.server.config.update_apply_time,
            lambda msg: handlers[msg.kind](msg),
        )

    # ------------------------------------------------------------------

    def _lock_is_free(self, key: str, rid: int) -> bool:
        held = self.locks.get(key)
        if held is None:
            return True
        holder, _epoch, expires = held
        return holder == rid or self.env.now > expires

    def _on_lock(self, msg: Message) -> None:
        p = msg.payload
        prefix = self.protocol.prefix
        if self._lock_is_free(p["key"], p["rid"]):
            held = self.locks.get(p["key"])
            # Same-holder re-locks keep the newest epoch (a stale LOCK
            # must not roll the epoch back under a newer grant).
            epoch = p["epoch"]
            if held is not None and held[0] == p["rid"]:
                epoch = max(epoch, held[1])
            self.locks[p["key"]] = (
                p["rid"],
                epoch,
                self.env.now + self.protocol.lock_ttl,
            )
            self.grants_given += 1
            self.endpoint.send(
                p["reply_to"],
                f"{prefix}_GRANT",
                payload={
                    "rid": p["rid"],
                    "epoch": p["epoch"],
                    "from": self.host,
                    "votes": self.protocol.votes_of(self.host),
                    "version": self.server.store.version_of(p["key"]),
                },
            )
        else:
            self.nacks_given += 1
            self.endpoint.send(
                p["reply_to"],
                f"{prefix}_NACK",
                payload={
                    "rid": p["rid"],
                    "epoch": p["epoch"],
                    "from": self.host,
                    "votes": self.protocol.votes_of(self.host),
                },
            )

    def _on_apply(self, msg: Message) -> None:
        p = msg.payload
        for write in p["writes"]:  # APPLY is terminal: release any epoch
            applied = self.server.store.apply(
                write.key, write.value, write.version, self.env.now
            )
            if applied:
                self.server.history.append(
                    CommitRecord(
                        request_id=write.request_id,
                        key=write.key,
                        value=write.value,
                        version=write.version,
                        committed_at=self.env.now,
                        origin=p["origin"],
                    )
                )
        self._release(p["rid"])

    def _on_abort(self, msg: Message) -> None:
        p = msg.payload
        self._release(p["rid"], up_to_epoch=p.get("epoch"))

    def _release(self, rid: int, up_to_epoch: Optional[int] = None) -> None:
        """Free this rid's grants.

        With ``up_to_epoch`` given (an ABORT), grants from a *newer*
        epoch survive — the abort is stale relative to a re-lock that
        overtook it in the network.
        """
        for key, (holder, epoch, _expires) in list(self.locks.items()):
            if holder != rid:
                continue
            if up_to_epoch is not None and epoch > up_to_epoch:
                continue
            del self.locks[key]

    def _on_readv(self, msg: Message) -> None:
        p = msg.payload
        entry = self.server.store.read(p["key"])
        self.endpoint.send(
            p["reply_to"],
            f"{self.protocol.prefix}_RVAL",
            payload={
                "rid": p["rid"],
                "from": self.host,
                "votes": self.protocol.votes_of(self.host),
                "version": entry.version if entry else 0,
                "value": entry.value if entry else None,
            },
        )


class QuorumProtocol(ReplicationProtocol):
    """Generic voting/locking write engine.

    Parameterised by vote weights and read/write quorum sizes; the
    concrete baselines (MCV, weighted voting, available copies) are
    configurations and small specialisations of this engine.
    """

    name = "quorum"
    prefix = "Q"
    #: Per-host daemon implementation; subclasses may swap in a
    #: different locking discipline (e.g. blocking 2PL).
    daemon_class = BaselineDaemon

    def __init__(
        self,
        deployment: Deployment,
        votes: Optional[Dict[str, int]] = None,
        write_quorum: Optional[int] = None,
        read_quorum: Optional[int] = None,
        lock_timeout: float = 500.0,
        lock_ttl: float = 10_000.0,
        retry_backoff: float = 25.0,
        max_rounds: int = 20,
        local_reads: bool = False,
        enforce_quorum_intersection: bool = True,
    ) -> None:
        super().__init__(deployment)
        hosts = deployment.hosts
        self.votes: Dict[str, int] = votes or {h: 1 for h in hosts}
        total = sum(self.votes.values())
        self.total_votes = total
        self.write_quorum = (
            write_quorum if write_quorum is not None else total // 2 + 1
        )
        self.read_quorum = (
            read_quorum if read_quorum is not None else total // 2 + 1
        )
        if enforce_quorum_intersection:
            # Gifford's constraints; available-copies deliberately opts
            # out (that is exactly its partition vulnerability).
            if self.write_quorum + self.read_quorum <= total:
                raise ValueError(
                    f"r + w must exceed total votes: r={self.read_quorum} "
                    f"w={self.write_quorum} total={total}"
                )
            if 2 * self.write_quorum <= total:
                raise ValueError(
                    f"w must exceed half the votes: w={self.write_quorum} "
                    f"total={total}"
                )
        self.lock_timeout = lock_timeout
        self.lock_ttl = lock_ttl
        self.retry_backoff = retry_backoff
        self.max_rounds = max_rounds
        self.local_reads = local_reads
        #: the lock round's replies, one conversation per (rid, epoch)
        self._round_replies = (f"{self.prefix}_GRANT", f"{self.prefix}_NACK")
        deployment.network.route(self._round_replies, key=_ROUND_KEY)
        deployment.network.route((f"{self.prefix}_RVAL",), key=_RID_KEY)
        self.daemons = {h: self.daemon_class(self, h) for h in hosts}
        self._stream = deployment.streams.stream(f"{self.prefix}.backoff")

    def votes_of(self, host: str) -> int:
        return self.votes.get(host, 0)

    # -- write path -------------------------------------------------------

    def _start_write(self, record: RequestRecord) -> None:
        record.dispatched_at = self.env.now
        self._lock_round(record, 1)

    def _lock_round(self, record: RequestRecord, attempt: int) -> None:
        """Lock round ``attempt`` (its epoch): broadcast LOCK, then tally
        GRANT/NACK replies until quorum, impossibility or timeout."""
        endpoint = self.deployment.network.endpoints[record.home]
        rid = record.request_id
        grant_kind = f"{self.prefix}_GRANT"
        endpoint.broadcast(
            f"{self.prefix}_LOCK",
            payload={
                "rid": rid,
                "epoch": attempt,
                "key": record.key,
                "reply_to": record.home,
            },
            include_self=True,
        )
        grants: Dict[str, Tuple[int, int]] = {}  # host -> (votes, version)
        granted_votes = 0
        nack_votes = 0

        def tally(msg: Optional[Message]) -> bool:
            nonlocal granted_votes, nack_votes
            if msg is not None:
                p = msg.payload
                if msg.kind == grant_kind:
                    if p["from"] not in grants:
                        grants[p["from"]] = (p["votes"], p["version"])
                        granted_votes += p["votes"]
                    if granted_votes < self.write_quorum:
                        return False
                else:
                    nack_votes += p["votes"]
                    if self.total_votes - nack_votes >= self.write_quorum:
                        return False
            self._round_over(record, attempt, grants, granted_votes)
            return True

        endpoint.wait(
            self._round_replies, (rid, attempt), self.lock_timeout, tally
        )

    def _round_over(self, record: RequestRecord, attempt: int,
                    grants: Dict[str, Tuple[int, int]],
                    granted_votes: int) -> None:
        """Commit with a write quorum; otherwise release everything and
        retry after a randomized, linearly growing backoff (the classic
        voting retry loop) — the last round backs off before failing."""
        env = self.env
        endpoint = self.deployment.network.endpoints[record.home]
        if granted_votes >= self.write_quorum:
            record.lock_acquired_at = env.now
            record.extra["lock_rounds"] = attempt
            version = 1 + max(v for _host, (_w, v) in grants.items())
            writes = (
                WriteOp(
                    request_id=record.request_id,
                    key=record.key,
                    value=record.value,
                    version=version,
                ),
            )
            self._apply(endpoint, record, writes, grants)
            record.completed_at = env.now
            record.status = "committed"
            return
        endpoint.broadcast(
            f"{self.prefix}_ABORT",
            payload={"rid": record.request_id, "epoch": attempt},
            include_self=True,
        )
        if self.retry_backoff > 0:
            env.call_in(
                self._stream.exponential(self.retry_backoff * attempt),
                self._next_round, (record, attempt),
            )
        else:
            self._next_round((record, attempt))

    def _next_round(self, after: Tuple[RequestRecord, int]) -> None:
        record, attempt = after
        if attempt < self.max_rounds:
            self._lock_round(record, attempt + 1)
            return
        record.completed_at = self.env.now
        record.extra["lock_rounds"] = self.max_rounds
        record.status = "failed"

    def _apply(self, endpoint, record, writes, grants) -> None:
        """Propagate the accepted update. Default: write-all broadcast."""
        endpoint.broadcast(
            f"{self.prefix}_APPLY",
            payload={
                "rid": record.request_id,
                "writes": writes,
                "origin": record.home,
            },
            include_self=True,
        )

    # -- read path ---------------------------------------------------------------

    def _start_read(self, record: RequestRecord) -> None:
        env = self.env
        record.dispatched_at = env.now
        if self.local_reads or self.read_quorum <= 1:
            self._read_local(record)
            return
        endpoint = self.deployment.network.endpoints[record.home]
        endpoint.broadcast(
            f"{self.prefix}_READV",
            payload={
                "rid": record.request_id,
                "key": record.key,
                "reply_to": record.home,
            },
            include_self=True,
        )
        best_version, best_value = 0, None
        votes = 0
        replied: Set[str] = set()

        def tally(msg: Optional[Message]) -> bool:
            nonlocal best_version, best_value, votes
            if msg is not None:
                p = msg.payload
                if p["from"] not in replied:
                    replied.add(p["from"])
                    votes += p["votes"]
                    if p["version"] >= best_version:
                        best_version, best_value = p["version"], p["value"]
                if votes < self.read_quorum:
                    return False
            record.value = best_value
            record.extra["version"] = best_version
            record.completed_at = env.now
            record.status = (
                "read-done" if votes >= self.read_quorum else "failed"
            )
            return True

        endpoint.wait(
            f"{self.prefix}_RVAL", record.request_id, self.lock_timeout, tally
        )
