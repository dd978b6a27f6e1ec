"""The replication-protocol interface, and the DES driver of the baselines.

MARP and every message-passing baseline implement this interface over a
shared :class:`~repro.replication.deployment.Deployment`, so workloads,
metrics and consistency audits are protocol-agnostic. :class:`Baseline`
drives any row of the kernel's table (:mod:`~repro.core.machines.protocols`).
"""

from __future__ import annotations

from typing import Any, List, Optional

from repro.core.machines import (
    Done, LadderMachine, ReaderMachine, Resident, VotingMachine,
    protocol_row,
)
from repro.errors import ReplicationError
from repro.replication.deployment import Deployment
from repro.replication.requests import READ, WRITE, RequestRecord, new_request_id

__all__ = ["ReplicationProtocol", "Baseline", "Coordinator"]


class Coordinator(Resident):
    """A coordinator (a baseline's write, any quorum read) as its home
    host holds it: the machine, the request's record and the protocol's
    back-off stream (the DES substrate draws a ``Backoff`` from
    ``stream``). At ``Done``, ``close(record, machine, now)``, if given,
    records what the machine found, and the record closes."""

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


class ReplicationProtocol:
    """Base class for replication control protocols.

    Subclasses implement :meth:`_start_write` and :meth:`_start_read`,
    which must *asynchronously* process the request (scheduling
    simulation events) and fill in the record's timeline fields, finally
    setting ``record.status``.
    """

    name = "abstract"

    def __init__(self, deployment: Deployment) -> None:
        self.deployment = deployment
        self.env = deployment.env
        self.records: List[RequestRecord] = []
        # Streaming mode (enable_streaming): terminal records are swept
        # out of self.records into the sink, so memory stays O(in-flight)
        # instead of O(total requests).
        self._stream_sink = None
        self._sweep_every = 0
        self._since_sweep = 0
        self.swept = 0

    # -- submission API (used by clients and examples) ----------------------

    def submit(
        self, home: str, op: str, key: str, value: Any = None
    ) -> RequestRecord:
        """Entry point for one client request (non-blocking)."""
        if home not in self.deployment.servers:
            raise ReplicationError(f"unknown home server {home!r}")
        if op == WRITE:
            return self.submit_write(home, key, value)
        if op == READ:
            return self.submit_read(home, key)
        raise ReplicationError(f"unknown operation {op!r}")

    def submit_write(self, home: str, key: str, value: Any) -> RequestRecord:
        record = RequestRecord(
            request_id=new_request_id(),
            home=home,
            op=WRITE,
            key=key,
            value=value,
            created_at=self.env.now,
        )
        self.records.append(record)
        self._start_write(record)
        if self._stream_sink is not None:
            self._maybe_sweep()
        return record

    def submit_read(self, home: str, key: str) -> RequestRecord:
        record = RequestRecord(
            request_id=new_request_id(),
            home=home,
            op=READ,
            key=key,
            created_at=self.env.now,
        )
        self.records.append(record)
        self._start_read(record)
        if self._stream_sink is not None:
            self._maybe_sweep()
        return record

    # -- protocol hooks ---------------------------------------------------------

    def _start_write(self, record: RequestRecord) -> None:  # pragma: no cover
        raise NotImplementedError

    def _start_read(self, record: RequestRecord) -> None:  # pragma: no cover
        raise NotImplementedError

    def _read_local(self, record: RequestRecord) -> None:
        """Serve ``record`` from its home replica's copy once the
        server's ``read_service_time`` has passed — the read-one path
        (fast, not guaranteed fresh)."""
        server = self.deployment.server(record.home)

        def read(_arg: None = None) -> None:
            entry = server.read(record.key)
            record.value = entry.value if entry is not None else None
            record.extra["version"] = entry.version if entry is not None else 0
            record.completed_at = self.env.now
            record.status = "read-done"

        if server.config.read_service_time > 0:
            self.env.call_in(server.config.read_service_time, read)
        else:
            read()

    # -- streaming accounting -----------------------------------------------

    def enable_streaming(self, sink, sweep_every: int = 4096) -> None:
        """Sweep terminal records into ``sink`` instead of keeping them.

        ``sink`` is any callable taking one terminal
        :class:`RequestRecord` (e.g.
        :meth:`repro.analysis.metrics.StreamingMetrics.observe`); it
        sees each record exactly once, after the record reached a
        terminal status. Every ``sweep_every`` submissions the record
        list is compacted down to the still-pending requests, bounding
        memory by the in-flight population. Call
        :meth:`finalize_streaming` after the run to flush stragglers.
        """
        if sweep_every < 1:
            raise ReplicationError(f"sweep_every must be >= 1: {sweep_every}")
        self._stream_sink = sink
        self._sweep_every = sweep_every
        self._since_sweep = 0

    def _maybe_sweep(self) -> None:
        self._since_sweep += 1
        if self._since_sweep >= self._sweep_every:
            self._sweep()

    def _sweep(self) -> int:
        sink = self._stream_sink
        kept: List[RequestRecord] = []
        swept = 0
        for record in self.records:
            if record.status == "pending":
                kept.append(record)
            else:
                sink(record)
                swept += 1
        self.records = kept
        self.swept += swept
        self._since_sweep = 0
        return swept

    def finalize_streaming(self) -> int:
        """Flush remaining terminal records; returns how many still
        pending (incomplete at horizon — never handed to the sink)."""
        if self._stream_sink is not None:
            self._sweep()
        return len(self.records)

    # -- bookkeeping --------------------------------------------------------------

    def open_requests(self) -> int:
        """Requests submitted but not yet terminal."""
        return sum(1 for r in self.records if r.status == "pending")

    def completed_writes(self) -> List[RequestRecord]:
        return [r for r in self.records if r.op == WRITE and r.status == "committed"]

    def failed_requests(self) -> List[RequestRecord]:
        return [r for r in self.records if r.status == "failed"]

    def run(self, until: Optional[float] = None):
        """Run the underlying simulation."""
        return self.deployment.run(until=until)

    def __repr__(self) -> str:
        return (
            f"<{type(self).__name__} requests={len(self.records)} "
            f"open={self.open_requests()}>"
        )


class Baseline(ReplicationProtocol):
    """The row called ``name`` (``"mcv"``, ``"weighted-voting"``,
    ``"available-copies"``, ``"primary-copy"``) with ``settings``, on the
    DES: the row's participant attached at every server
    (:meth:`~repro.replication.server.ReplicaServer.attach`), each write
    and quorum read a :class:`Coordinator` at its home host, and a local
    read where the row has no reader. Stores and histories are MARP's,
    so the consistency auditor applies unchanged."""

    def __init__(self, deployment: Deployment, name: str, **settings) -> None:
        super().__init__(deployment)
        self.name = name
        self.row = row = protocol_row(name, deployment.hosts, **settings)
        for host in deployment.hosts:
            server = deployment.server(host)
            server.attach(row.participant(host, server.machine))
        self._stream = deployment.streams.stream(f"{row.prefix}.backoff")

    def _coordinate(self, machine, record: RequestRecord) -> None:
        """Run ``machine`` for ``record`` at its home host."""
        record.dispatched_at = self.env.now
        self.deployment.server(record.home).interpreter.coordinate(
            Coordinator(machine, record, self._stream,
                        _CLOSE.get(machine.__class__))
        )

    def _start_write(self, record: RequestRecord) -> None:
        self._coordinate(self.row.write(
            record.request_id, record.key, record.value, record.home,
        ), record)

    def _start_read(self, record: RequestRecord) -> None:
        if self.row.reader is None:
            record.dispatched_at = self.env.now
            self._read_local(record)
        else:
            self._coordinate(self.row.reader(
                record.request_id, record.key, record.home,
            ), record)


def _voted(record: RequestRecord, machine: VotingMachine, now: float) -> None:
    if machine.writes:
        record.lock_acquired_at = now
    record.extra["lock_rounds"] = machine.attempt


def _climbed(record: RequestRecord, machine: LadderMachine,
             now: float) -> None:
    if machine.writes:
        record.lock_acquired_at = now
        record.extra["available_copies"] = sorted(machine.grants)
    record.extra["skipped"] = machine.skipped


def _read(record: RequestRecord, machine: ReaderMachine, now: float) -> None:
    record.value = machine.value
    record.extra["version"] = machine.version


#: What a baseline's record keeps of what its coordinator found, by the
#: machine's class (primary copy's forward finds nothing more).
_CLOSE = {VotingMachine: _voted, LadderMachine: _climbed, ReaderMachine: _read}
