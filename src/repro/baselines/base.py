"""Shared machinery for the message-passing baseline protocols.

The paper argues (§1) that conventional replication protocols are
expensive because "multiple local processes need to participate in
sessions of passing messages and waiting for replies" with "several
rounds of message exchange". To quantify that claim (experiments T1/T2
in DESIGN.md) we implement the classic protocols the paper cites over
the *same* deployment substrate as MARP:

* every host runs a participant — the stationary process that
  locks, votes and applies on behalf of the protocol, here a
  :class:`~repro.core.machines.participants.LockKeeper` with per-key
  leases and epoch-guarded releases;
* writes are driven by a coordinator at the request's home server using
  rounds of ``LOCK → GRANT/NACK → APPLY`` (or ``ABORT`` + retry)
  messages, epoch-tagged so stale replies from abandoned rounds are
  ignored (:mod:`repro.core.machines.coordinators`; a quorum read is
  the kernel's :class:`~repro.core.machines.reader.ReaderMachine`);
* both are sans-IO machines under each host's one effect interpreter,
  the MARP replica's: a participant is attached to it
  (:meth:`~repro.replication.server.ReplicaServer.attach`) and takes
  its messages from ``deliver``, and a coordinator takes its replies
  from the claim table, under its request id;
* stores/histories are the very same per-replica objects MARP uses, so
  the consistency auditor applies unchanged.

Message kinds are prefixed per protocol (``MCV_LOCK``, ``WV_GRANT``, …)
so a participant's kinds never meet the MARP replica's.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.machines import (
    Broadcast, Done, LockKeeper, ReaderMachine, Resident, VotingMachine,
)
from repro.replication.deployment import Deployment
from repro.replication.protocol import ReplicationProtocol
from repro.replication.requests import RequestRecord

__all__ = ["Coordinator", "QuorumProtocol"]


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


class QuorumProtocol(ReplicationProtocol):
    """Generic voting/locking write engine.

    Parameterised by vote weights and read/write quorum sizes; the
    concrete baselines (MCV, weighted voting, available copies) are
    configurations and small specialisations of this engine.
    """

    name = "quorum"
    prefix = "Q"
    #: a busy key queues a LOCK (blocking 2PL) instead of NACKing it
    queue_locks = False

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
        if lock_ttl <= 0:
            # every lease would be expired as it is granted
            raise ValueError(f"lock_ttl must be > 0: {lock_ttl}")
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
        for host in hosts:
            server = deployment.server(host)
            server.attach(LockKeeper(
                self.prefix, host, server.machine, self.votes_of(host),
                lock_ttl, self.queue_locks,
            ))
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
