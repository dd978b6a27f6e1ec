"""MARP — the Mobile Agent enabled Replication Protocol facade.

This is the library's primary public API::

    from repro import Deployment, MARP

    deployment = Deployment(n_replicas=5, seed=42)
    marp = MARP(deployment)
    record = marp.submit_write("s1", "x", 7)
    deployment.run()
    assert record.status == "committed"

Writes dispatch :class:`~repro.core.update_agent.UpdateAgent`s (one per
request, or one per batch); reads use the local or quorum path per the
configuration.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from repro.core.batching import BatchDispatcher
from repro.core.config import MARPConfig
from repro.core.machines import Broadcast, Done, ReaderMachine, Resident
from repro.core.update_agent import UpdateAgent
from repro.errors import ProtocolError
from repro.replication.deployment import Deployment
from repro.replication.protocol import ReplicationProtocol
from repro.replication.requests import RequestRecord, Transform

__all__ = ["MARP"]


class _QuorumRead(Resident):
    """A quorum read as the DES holds it: the reader and its record."""

    def __init__(self, record: RequestRecord, majority: int,
                 timeout: float) -> None:
        rid = record.request_id
        super().__init__(ReaderMachine(
            rid, Broadcast("READQ", {"request_id": rid, "key": record.key}),
            majority, timeout,
        ))
        self.record = record

    def finished(self, effect: Done, now: float) -> None:
        reader, record = self.machine, self.record
        record.value = reader.value
        record.extra.update(version=reader.version, read_strategy="quorum",
                            replies=len(reader.replied))
        record.completed_at = now
        record.status = effect.status


class MARP(ReplicationProtocol):
    """Fully distributed, consistent replication via cooperating agents.

    Parameters
    ----------
    deployment:
        The replica cluster to run over.
    config:
        Protocol tunables (:class:`MARPConfig`).
    votes:
        Optional Gifford-style vote weights per host; the lock then
        requires topping servers holding a strict majority of the total
        votes instead of a majority by count (§5's "generic method"
        extension). Default: one vote per replica (the paper's scheme).
    """

    name = "marp"

    def __init__(
        self,
        deployment: Deployment,
        config: Optional[MARPConfig] = None,
        votes: Optional[Dict[str, int]] = None,
    ) -> None:
        super().__init__(deployment)
        self.config = config or MARPConfig()
        if votes is not None:
            unknown = set(votes) - set(deployment.hosts)
            if unknown:
                raise ProtocolError(f"votes for unknown hosts: {unknown}")
            if any(v < 0 for v in votes.values()):
                raise ProtocolError("vote weights must be >= 0")
            if sum(votes.values()) < 1:
                raise ProtocolError("total vote weight must be >= 1")
        self.votes = votes
        self.total_votes = (
            sum(votes.values()) if votes else deployment.n_replicas
        )
        self.vote_majority = self.total_votes // 2 + 1
        #: the agents in flight; a finished one leaves (see
        #: :meth:`retire_agent`)
        self.agents: List[UpdateAgent] = []
        #: hops of the agents that have finished
        self._retired_hops = 0
        self._batcher: Optional[BatchDispatcher] = None
        if self.config.batch_size > 1:
            self._batcher = BatchDispatcher(self)

    def vote_of(self, host: str) -> int:
        if self.votes is None:
            return 1
        return self.votes.get(host, 0)

    # -- protocol hooks ------------------------------------------------------

    def _start_write(self, record: RequestRecord) -> None:
        if self._batcher is not None:
            self._batcher.add(record)
        else:
            self.launch_agent(record.home, [record])

    def _start_read(self, record: RequestRecord) -> None:
        if self.config.read_strategy == "quorum":
            self.deployment.server(record.home).interpreter.coordinate(
                _QuorumRead(record, self.deployment.majority,
                            self.config.ack_timeout)
            )
        else:
            record.extra["read_strategy"] = "local"
            self._read_local(record)

    # -- read-modify-write extension -----------------------------------------

    def submit_rmw(
        self, home: str, key: str, fn: Callable[[Any], Any],
        description: str = "",
    ) -> RequestRecord:
        """Submit an atomic read-modify-write: ``value = fn(current)``.

        The winning agent fetches the freshest committed copy from its
        acknowledgement quorum before applying ``fn`` ("uses the most
        recent copy", paper §3.1), so concurrent RMWs compose without
        lost updates.
        """
        return self.submit_write(home, key, Transform(fn, description))

    # -- agent dispatch ----------------------------------------------------------

    def launch_agent(
        self, home: str, records: List[RequestRecord]
    ) -> UpdateAgent:
        """Create and launch one update agent carrying ``records``."""
        server = self.deployment.server(home)
        agent = UpdateAgent(server.new_agent_id(), self, records)
        self.agents.append(agent)
        server.launch(agent)
        return agent

    def retire_agent(self, agent: UpdateAgent) -> None:
        """A finished agent reports in, right after its records close,
        and leaves the run ("broadcasts COMMIT, disposes").

        Only its hop count is kept. An agent holds its Locking Table and
        a view per known host, so keeping every one would make a run's
        memory grow with its length; to inspect a finished agent, hold a
        reference to it before it finishes, or read the trace.
        """
        self._retired_hops += agent.hops
        self.agents.remove(agent)

    # -- introspection -------------------------------------------------------------

    def total_agent_hops(self) -> int:
        """Migrations completed by every agent ever launched."""
        return self._retired_hops + sum(agent.hops for agent in self.agents)

    @property
    def batcher(self) -> Optional[BatchDispatcher]:
        return self._batcher
