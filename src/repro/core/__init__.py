"""MARP — the paper's contribution: mobile-agent replication control."""

from repro.core.config import MARPConfig
from repro.core.machines.priority import (
    OTHER,
    STALEMATE,
    UNDECIDED,
    WIN,
    Decision,
    decide,
    rank_queue,
)
from repro.core.machines.table import LockingTable
from repro.core.protocol import MARP
from repro.core.update_agent import UpdateAgent

__all__ = [
    "MARP",
    "MARPConfig",
    "UpdateAgent",
    "LockingTable",
    "Decision",
    "decide",
    "rank_queue",
    "WIN",
    "OTHER",
    "STALEMATE",
    "UNDECIDED",
]
