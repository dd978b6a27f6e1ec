"""Agent shipping: serialise an agent's state for migration.

In the live runtime an agent migration is a real pickle round-trip —
exactly what Aglets did with Java serialisation. The carried state is
the paper's suitcase: the Request List, the Locking Table (a genuine
:class:`repro.core.machines.table.LockingTable`), the Un-visited
Servers List, the identifiers, and the journey log the effect
interpreter stamps (dispatch/lock timestamps, hop count, open phase
starts) — all of it fields of the kernel's
:class:`~repro.core.machines.agent.AgentCoreState`, so a host rebuilds
an :class:`AgentMachine` around the unshipped state at every hop.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass

from repro.core.machines.agent import AgentCoreState

__all__ = ["LiveAgentState", "ship", "unship"]


@dataclass
class LiveAgentState(AgentCoreState):
    """The migrating state of one live update agent.

    ``requests`` entries are ``(request_id, key, value, created_at_ms)``
    — the kernel reads the first three elements and ignores the rest.
    """


def ship(state: LiveAgentState) -> bytes:
    """Serialise for migration; the byte length sizes the transfer."""
    return pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)


def unship(blob: bytes) -> LiveAgentState:
    """Rehydrate a migrated agent at the destination host."""
    state = pickle.loads(blob)
    if not isinstance(state, LiveAgentState):
        raise TypeError(f"expected LiveAgentState, got {type(state)!r}")
    return state
