"""Live runtime backend: replica servers as real threads/processes,
agents migrating as pickled state over latency-injected queues
(the Aglets-prototype-shaped half of the reproduction)."""

from repro.runtime.cluster import LiveCluster

__all__ = ["LiveCluster"]
