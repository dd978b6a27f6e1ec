"""Message-passing baseline protocols (the comparators for T1/T2)."""

from repro.baselines.available_copies import AvailableCopies
from repro.baselines.base import QuorumProtocol
from repro.baselines.mcv import MajorityConsensusVoting
from repro.baselines.primary_copy import PrimaryCopy
from repro.baselines.weighted_voting import WeightedVoting

__all__ = [
    "QuorumProtocol",
    "MajorityConsensusVoting",
    "WeightedVoting",
    "AvailableCopies",
    "PrimaryCopy",
]

#: Registry used by experiments and the CLI.
PROTOCOLS = {
    "mcv": MajorityConsensusVoting,
    "weighted-voting": WeightedVoting,
    "available-copies": AvailableCopies,
    "primary-copy": PrimaryCopy,
}
