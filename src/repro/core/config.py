"""MARP protocol configuration."""

from __future__ import annotations

from dataclasses import dataclass

from repro.agents.itinerary import make_itinerary
from repro.core.machines.config import DES_TUNABLES
from repro.errors import ProtocolError

__all__ = ["MARPConfig"]


@dataclass
class MARPConfig:
    """Tunables of the MARP update protocol.

    Attributes
    ----------
    itinerary:
        Strategy name for choosing the next server
        (:mod:`repro.agents.itinerary`); the paper uses cost-sorted.
    read_strategy:
        ``"local"`` (paper: "a read operation may be executed on an
        arbitrary copy") or ``"quorum"`` (extension [D5]).
    batch_size:
        Requests carried per agent (paper §3.2: "after a pre-defined
        number of requests have been received ... a mobile agent will be
        created"). 1 = one agent per request (the evaluated setting).
    batch_flush_interval:
        Dispatch a partial batch after this many ms ("or periodically").
        Only meaningful when ``batch_size > 1``.
    park_timeout:
        Max ms a losing agent waits for a lock-release notification
        before proactively refreshing its view ([D2]).
    ack_timeout:
        Ms a claiming agent waits for the majority of UPDATE
        acknowledgements before releasing its grants and retrying.
    max_claims:
        Claim attempts before the agent aborts the request. Failed
        claims only occur under concurrent tie-break claims or server
        failures.
    claim_backoff:
        Mean of the randomized (exponential) delay before re-claiming
        after a failed claim, in ms.

    The agent-protocol fields default to the kernel's
    :data:`~repro.core.machines.config.DES_TUNABLES`; this dataclass is
    handed to :class:`~repro.core.machines.agent.AgentMachine` as its
    tunables object.
    """

    itinerary: str = "cost-sorted"
    read_strategy: str = "local"
    batch_size: int = 1
    batch_flush_interval: float = 100.0
    park_timeout: float = DES_TUNABLES.park_timeout
    ack_timeout: float = DES_TUNABLES.ack_timeout
    max_claims: int = DES_TUNABLES.max_claims
    claim_backoff: float = DES_TUNABLES.claim_backoff

    def __post_init__(self) -> None:
        if self.read_strategy not in ("local", "quorum"):
            raise ProtocolError(
                f"unknown read strategy {self.read_strategy!r}"
            )
        try:
            make_itinerary(self.itinerary)
        except ValueError as error:
            raise ProtocolError(str(error)) from None
        if self.batch_size < 1:
            raise ProtocolError(f"batch_size must be >= 1: {self.batch_size}")
        if self.batch_flush_interval <= 0:
            raise ProtocolError("batch_flush_interval must be > 0")
        if self.park_timeout <= 0:
            raise ProtocolError("park_timeout must be > 0")
        if self.ack_timeout <= 0:
            raise ProtocolError("ack_timeout must be > 0")
        if self.max_claims < 1:
            raise ProtocolError("max_claims must be >= 1")
        if self.claim_backoff < 0:
            raise ProtocolError("claim_backoff must be >= 0")
