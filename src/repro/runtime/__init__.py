"""Live runtime backend: replica servers as real threads/processes,
agents migrating as pickled state over latency-injected queues
(the Aglets-prototype-shaped half of the reproduction)."""

from repro.runtime.cluster import LiveCluster
from repro.runtime.host import HostRuntime, LiveConfig, now_ms
from repro.runtime.shipping import LiveAgentState, ship, unship
from repro.runtime.transport import LiveMessage, LiveTransport
from repro.runtime.workload import LiveWorkloadDriver, records_from_dicts

__all__ = [
    "LiveWorkloadDriver",
    "records_from_dicts",
    "LiveCluster",
    "HostRuntime",
    "LiveConfig",
    "LiveTransport",
    "LiveMessage",
    "LiveAgentState",
    "ship",
    "unship",
    "now_ms",
]
