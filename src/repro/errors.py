"""Exception hierarchy for the :mod:`repro` package.

Every error raised deliberately by the library derives from
:class:`ReproError` so callers can catch library failures with a single
``except`` clause while letting programming errors (``TypeError`` etc.)
propagate.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "SimulationError",
    "StopSimulation",
    "NetworkError",
    "LinkDown",
    "HostUnreachable",
    "AgentError",
    "MigrationError",
    "ReplicationError",
    "ConsistencyViolation",
    "ProtocolError",
    "WorkloadError",
    "ExperimentError",
]


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class SimulationError(ReproError):
    """The discrete-event kernel was used incorrectly or reached an
    inconsistent state (e.g. yielding a non-event from a process)."""


class StopSimulation(Exception):
    """Internal control-flow signal that ends :meth:`Environment.run`.

    Deliberately *not* a :class:`ReproError`: it must never be swallowed
    by user code catching library errors.
    """

    def __init__(self, value=None):
        super().__init__(value)
        self.value = value


class NetworkError(ReproError):
    """Base class for network-substrate failures."""


class LinkDown(NetworkError):
    """A message or migration was dropped because the link is faulted."""


class HostUnreachable(NetworkError):
    """No route exists between two hosts (partition or crashed node)."""


class AgentError(ReproError):
    """Base class for mobile-agent platform failures."""


class MigrationError(AgentError):
    """An agent migration failed (timeout, link down, or dead host)."""

    def __init__(self, message: str, destination=None, attempts: int = 1):
        super().__init__(message)
        self.destination = destination
        self.attempts = attempts


class ReplicationError(ReproError):
    """Base class for replication-layer failures."""


class ConsistencyViolation(ReplicationError):
    """A post-run audit detected divergent replica state or history."""


class ProtocolError(ReplicationError):
    """A protocol implementation violated its own state machine."""


class WorkloadError(ReproError):
    """Invalid workload specification."""


class ExperimentError(ReproError):
    """Invalid experiment configuration or failed run."""
