"""Trace replay: drive any protocol with a previously recorded workload.

Recording (see :class:`~repro.workload.trace.WorkloadTrace`) captures the
exact request stream of a run; replaying it submits the identical
requests at the identical simulated instants. This gives the strongest
form of paired comparison between protocols — not just common random
numbers but literally the same workload — and makes failing runs
replayable while debugging.
"""

from __future__ import annotations

from typing import Dict, List

from repro.errors import WorkloadError
from repro.replication.protocol import ReplicationProtocol
from repro.replication.requests import RequestRecord
from repro.workload.trace import WorkloadTrace

__all__ = ["TraceReplayer", "record_workload"]


class TraceReplayer:
    """Submits a recorded trace against a protocol, entry by entry."""

    def __init__(
        self, protocol: ReplicationProtocol, trace: WorkloadTrace
    ) -> None:
        if protocol.env.now > 0 and len(trace) and trace.entries[0].at < protocol.env.now:
            raise WorkloadError(
                "trace starts in the past relative to the simulation clock"
            )
        self.protocol = protocol
        self.trace = trace
        self.submitted: List[RequestRecord] = []
        self._entries = iter(trace)
        self._replay()

    def _replay(self, entry=None) -> None:
        """Submit the entry whose wait just ended and every later one
        that is due; wait for the first that is not."""
        env = self.protocol.env
        while True:
            if entry is not None:
                self.submitted.append(self.protocol.submit(
                    entry.home, entry.op, entry.key, entry.value
                ))
            entry = next(self._entries, None)
            if entry is None:
                return
            gap = entry.at - env.now
            if gap > 0:
                env.call_in(gap, self._replay, entry)
                return

    def __repr__(self) -> str:
        return (
            f"<TraceReplayer entries={len(self.trace)} "
            f"submitted={len(self.submitted)}>"
        )


def record_workload(
    protocol: ReplicationProtocol,
    arrivals,
    mix,
    max_requests_per_client: int,
    until: float,
) -> WorkloadTrace:
    """Run a workload against ``protocol`` while recording it.

    Convenience wrapper over :func:`attach_clients` that returns the
    trace; the protocol's records hold the live results as usual.
    """
    from repro.replication.client import attach_clients

    trace = WorkloadTrace()
    attach_clients(
        protocol, arrivals, mix,
        max_requests_per_client=max_requests_per_client,
        trace=trace,
    )
    protocol.run(until=until)
    return trace


def replay_onto(
    protocol: ReplicationProtocol,
    trace: WorkloadTrace,
    horizon: float,
) -> Dict[int, RequestRecord]:
    """Replay ``trace`` to completion; returns records by trace index."""
    replayer = TraceReplayer(protocol, trace)
    protocol.run(until=horizon)
    return dict(enumerate(replayer.submitted))
