"""Shared machinery for the message-passing baseline protocols.

The paper argues (§1) that conventional replication protocols are
expensive because "multiple local processes need to participate in
sessions of passing messages and waiting for replies" with "several
rounds of message exchange". To quantify that claim (experiments T1/T2
in DESIGN.md) we implement the classic protocols the paper cites over
the *same* deployment substrate as MARP:

* every host runs a :class:`BaselineDaemon` — the stationary process that
  votes/locks/applies on behalf of the protocol;
* writes are driven by a coordinator at the request's home server using
  rounds of ``LOCK → GRANT/NACK → APPLY`` (or ``ABORT`` + retry)
  messages, with per-key leases and epoch-tagged replies so stale
  messages from abandoned rounds are ignored. The coordinator is a
  sans-IO machine (:mod:`repro.core.machines.coordinators`; a quorum
  read is the kernel's :class:`~repro.core.machines.reader.ReaderMachine`)
  run by the home host's effect interpreter, which hands it its replies
  through the claim table (:func:`take_replies`);
* stores/histories are the very same per-replica objects MARP uses, so
  the consistency auditor applies unchanged.

Message kinds are prefixed per protocol (``MCV_LOCK``, ``WV_GRANT``, …)
so daemons coexist with the MARP replica server on the same endpoints.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple

from repro.core.machines import (
    Broadcast, Done, ReaderMachine, Resident, VotingMachine,
)
from repro.net.message import Message
from repro.replication.deployment import Deployment
from repro.core.machines.structures import CommitRecord
from repro.replication.protocol import ReplicationProtocol
from repro.replication.requests import RequestRecord

__all__ = ["BaselineDaemon", "Coordinator", "QuorumProtocol", "take_replies"]


def take_replies(deployment: Deployment, kinds: Iterable[str]) -> None:
    """Serve ``kinds`` at every host in no time, handing each reply to
    that host's claim table under its ``rid``: the coordinator of that
    request takes it, and one nobody claims is dropped there."""
    kinds = tuple(kinds)
    for host in deployment.hosts:
        reply = deployment.server(host).interpreter.reply
        deployment.network.endpoints[host].serve(
            kinds, None,
            lambda msg, reply=reply: reply(
                msg.payload["rid"], msg.kind, msg.payload
            ),
        )


class Coordinator(Resident):
    """A baseline coordinator as its home host holds it: the machine,
    the request's record and the protocol's back-off stream (the DES
    substrate draws a ``Backoff`` from ``stream``). ``close(record,
    machine, now)``, if given, fills in what the machine found when it
    is done; the status and completion time are every coordinator's."""

    def __init__(self, machine, record: RequestRecord, stream=None,
                 close=None) -> None:
        super().__init__(machine)
        self.record = record
        self.stream = stream
        self.close = close

    def finished(self, effect: Done, now: float) -> None:
        record = self.record
        if self.close is not None:
            self.close(record, self.machine, now)
        record.completed_at = now
        record.status = effect.status


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
        unknown = sorted(set(self.votes) - set(hosts))
        if unknown:
            raise ValueError(f"votes for hosts not deployed: {unknown}")
        if any(weight < 0 for weight in self.votes.values()):
            raise ValueError(f"vote weights must be >= 0: {self.votes}")
        total = sum(self.votes.values())
        if total < 1:
            raise ValueError(f"total votes must be >= 1: {total}")
        if lock_timeout <= 0:
            raise ValueError(f"lock_timeout must be > 0: {lock_timeout}")
        if max_rounds < 1:
            raise ValueError(f"max_rounds must be >= 1: {max_rounds}")
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
        take_replies(deployment, (
            f"{self.prefix}_GRANT", f"{self.prefix}_NACK",
            f"{self.prefix}_RVAL",
        ))
        self.daemons = {h: self.daemon_class(self, h) for h in hosts}
        self._stream = deployment.streams.stream(f"{self.prefix}.backoff")

    def votes_of(self, host: str) -> int:
        return self.votes.get(host, 0)

    def _coordinate(self, machine, record: RequestRecord, close) -> None:
        """Run ``machine`` for ``record`` at its home host."""
        record.dispatched_at = self.env.now
        self.deployment.server(record.home).interpreter.coordinate(
            Coordinator(machine, record, self._stream, close)
        )

    # -- write path -------------------------------------------------------

    def _start_write(self, record: RequestRecord) -> None:
        self._coordinate(VotingMachine(
            self.prefix, record.request_id, record.key, record.value,
            record.home, self.total_votes, self.write_quorum,
            self.lock_timeout, self.retry_backoff, self.max_rounds,
        ), record, _voted)

    # -- read path ---------------------------------------------------------------

    def _start_read(self, record: RequestRecord) -> None:
        if self.local_reads or self.read_quorum <= 1:
            record.dispatched_at = self.env.now
            self._read_local(record)
            return
        rid = record.request_id
        self._coordinate(ReaderMachine(
            rid,
            Broadcast(f"{self.prefix}_READV", {
                "rid": rid, "key": record.key, "reply_to": record.home,
            }),
            self.read_quorum, self.lock_timeout, votes=self.votes,
        ), record, _read)


def _voted(record: RequestRecord, machine: VotingMachine, now: float) -> None:
    if machine.writes:
        record.lock_acquired_at = now
    record.extra["lock_rounds"] = machine.attempt


def _read(record: RequestRecord, machine: ReaderMachine, now: float) -> None:
    record.value = machine.value
    record.extra["version"] = machine.version
