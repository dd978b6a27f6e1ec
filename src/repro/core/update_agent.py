"""The update mobile agent, as the DES backend holds it.

The protocol *logic* — touring, priority evaluation, parking ([D2]), the
claim round and version assignment ([D3]) — lives in the sans-IO
:class:`~repro.core.machines.agent.AgentMachine`, and what each of its
effects *means* in :class:`~repro.core.machines.interpreter.EffectInterpreter`.
An :class:`UpdateAgent` is the :class:`Resident` the DES hands that
interpreter: the machine plus what the simulated hosts
(:class:`~repro.replication.server.ReplicaServer`) need per agent —

* its itinerary policy and private random stream (a ``Migrate``'s
  destination and a back-off's length are drawn from them);
* its carried state, which sizes every migration;
* the request records it fills in as milestones pass, and its travel log.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Tuple

from repro.agents.identity import AgentId, host_bytes
from repro.agents.itinerary import make_itinerary
from repro.core.machines.agent import AgentCoreState, AgentMachine
from repro.core.machines.effects import Dispose, LockWon
from repro.core.machines.interpreter import Resident
from repro.core.machines.table import LockingTable
from repro.net.message import estimate_size
from repro.replication.requests import RequestRecord

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.protocol import MARP

__all__ = ["UpdateAgent"]


class UpdateAgent(Resident):
    """Carries a batch of update requests to a majority consensus."""

    def __init__(
        self,
        agent_id: AgentId,
        marp: "MARP",
        records: List[RequestRecord],
    ) -> None:
        if not records:
            raise ValueError("an update agent needs at least one request")
        hosts = marp.deployment.hosts
        self.agent_id = agent_id
        self.home = agent_id.host
        self.marp = marp
        self.records = list(records)
        self.batch_id = self.records[0].request_id
        #: the carried protocol state; the sans-IO kernel runs over it
        self.core = AgentCoreState(
            agent_id=agent_id,
            home=self.home,
            batch_id=self.batch_id,
            requests=[(r.request_id, r.key, r.value) for r in self.records],
            tour_remaining=set(hosts) - {self.home},
            location=self.home,
        )
        super().__init__(
            AgentMachine(self.core, hosts, marp.config, votes=marp.votes)
        )
        self.itinerary = make_itinerary(marp.config.itinerary, home=self.home)
        self._stream = None
        #: ``(time, host)`` per arrival, launch included
        self.travel_log: List[Tuple[float, str]] = []
        self.disposed = False
        # What :meth:`state` holds that does not change while the agent
        # travels — container, the four keys, identifier, Request List,
        # the (empty) un-visited list — sized once.
        keys = ("agent_id", "requests", "unvisited", "table")
        self._fixed_size = (
            16 + sum(map(len, keys))
            + agent_id.wire_size()
            + estimate_size(self.core.requests)
            + 16
        )

    @property
    def stream(self):
        """The agent's private random stream, derived at the first draw
        (it is a function of its name): an agent that never backs off
        and follows a deterministic itinerary never builds one."""
        if self._stream is None:
            self._stream = self.marp.deployment.streams.stream(
                f"agent.{self.agent_id}"
            )
        return self._stream

    @property
    def table(self) -> LockingTable:
        return self.core.table

    @property
    def hops(self) -> int:
        """Completed migrations."""
        return self.core.hops

    def state(self) -> Dict[str, Any]:
        """Everything packed in the suitcase — the specification of
        :meth:`suitcase_size`, which is what sizes a migration. It is
        the paper's suitcase (identifier, Request List, Un-visited
        Servers List, Locking Table); the claim bookkeeping — epoch,
        visited set, visit grants — is not charged."""
        return {
            "agent_id": self.agent_id,
            "requests": [
                (r.request_id, r.key, r.value) for r in self.records
            ],
            "unvisited": sorted(self.core.tour_remaining),
            "table": self.core.table,  # has wire_size()
        }

    def suitcase_size(self) -> int:
        """``estimate_size(self.state())`` without building the dict:
        the fixed share, the un-visited names from cached byte lengths,
        and the table's own running total."""
        return (
            self._fixed_size
            + sum(map(host_bytes, self.core.tour_remaining))
            + self.core.table.wire_size()
        )

    # -- record keeping (called by the hosting server) ----------------------

    def dispatched(self, now: float) -> None:
        for record in self.records:
            record.dispatched_at = now
            record.agent_id = str(self.agent_id)

    def lock_won(self, effect: LockWon, now: float) -> None:
        """ALT inputs (overwritten if the claim round fails and the lock
        has to be re-acquired)."""
        for record in self.records:
            record.lock_acquired_at = now
            record.visits_to_lock = effect.visits
            record.extra["visit_events_to_lock"] = effect.visit_events
            record.extra["win_reason"] = effect.reason
            record.extra["parks"] = effect.parks

    def finished(self, effect: Dispose, now: float) -> None:
        # RMW records report the final (transformed) value.
        by_id = {w.request_id: w for w in effect.writes}
        for record in self.records:
            write = by_id.get(record.request_id)
            if write is not None:
                record.value = write.value
            record.completed_at = now
            record.total_visits = self.core.visit_events
            record.extra["failed_claims"] = self.core.failed_claims
            record.status = effect.status
        self.disposed = True
        self.marp.retire_agent(self)

    def __repr__(self) -> str:
        return f"<UpdateAgent {self.agent_id} at {self.core.location}>"
