"""One kernel-level home for every protocol tunable.

Both execution backends used to restate the same timer/tunable fields
(``MARPConfig`` + ``ReplicaConfig`` for the DES, ``LiveConfig`` for the
live runtime) with independently maintained defaults — a drift hazard.
The machines consume only a :class:`ProtocolTunables`, and the two
backend config dataclasses now *source their defaults from here*:

* :data:`DES_TUNABLES` — the paper-evaluation scale (simulated ms).
* :data:`LIVE_TUNABLES` — wall-clock scale for the threaded runtime,
  where a whole experiment runs in a couple of real seconds.

The scale difference between the backends is intentional and now
explicit in one file instead of scattered across three dataclasses.

``ProtocolTunables`` is duck-typed on purpose: the machines only read
the attributes, so any object exposing them (``MARPConfig``,
``ReplicaConfig``, ``LiveConfig``, or a ``ProtocolTunables`` itself)
can drive a machine — including configs mutated after construction.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ProtocolError

__all__ = [
    "ProtocolTunables", "DES_TUNABLES", "LIVE_TUNABLES",
    "UL_WINDOW_FACTOR",
]

#: Attribute names the agent machine reads off its tunables object.
AGENT_TUNABLE_FIELDS = ("park_timeout", "ack_timeout", "max_claims", "claim_backoff")
#: Attribute names the replica machine reads off its tunables object.
REPLICA_TUNABLE_FIELDS = ("grant_ttl", "enable_bulletin")

# The hygiene window, as a multiple of ``grant_ttl``. It must exceed
# ``grant_ttl`` plus the worst RELEASE propagation delay (see
# docs/scale.md, "Hygiene window"); at the DES default it is the 15 s
# every scale run has used.
#: A replica's Updated List forgets a completed agent after
#: ``UL_WINDOW_FACTOR * grant_ttl`` ms.
UL_WINDOW_FACTOR = 1.5


@dataclass(frozen=True)
class ProtocolTunables:
    """The protocol-level knobs shared by Algorithm 1 and Algorithm 2.

    Attributes
    ----------
    park_timeout:
        Max ms a losing agent waits for a lock-release notification
        before proactively refreshing its view ([D2]).
    ack_timeout:
        Ms a claiming agent waits for the majority of UPDATE
        acknowledgements (and for each RMW base-value fetch) before
        releasing its grants and retrying.
    max_claims:
        Claim attempts before the agent aborts the request.
    claim_backoff:
        Mean of the randomized (exponential) delay before re-claiming
        after a failed claim, in ms.
    grant_ttl:
        Ms after which an unreleased server-side update grant expires,
        so a claimer that crashed mid-claim cannot wedge a server
        forever. Must comfortably exceed any realistic claim round.
    enable_bulletin:
        Paper §3.1 information sharing via server bulletin boards.
        Off for the A2 ablation.
    """

    park_timeout: float = 100.0
    ack_timeout: float = 1000.0
    max_claims: int = 10
    claim_backoff: float = 25.0
    grant_ttl: float = 10_000.0
    enable_bulletin: bool = True

    def __post_init__(self) -> None:
        if self.park_timeout <= 0:
            raise ProtocolError("park_timeout must be > 0")
        if self.ack_timeout <= 0:
            raise ProtocolError("ack_timeout must be > 0")
        if self.max_claims < 1:
            raise ProtocolError("max_claims must be >= 1")
        if self.claim_backoff < 0:
            raise ProtocolError("claim_backoff must be >= 0")
        if self.grant_ttl <= 0:
            raise ProtocolError("grant_ttl must be > 0")


#: Defaults for the discrete-event backend (simulated milliseconds;
#: matches the paper's evaluated configuration).
DES_TUNABLES = ProtocolTunables()

#: Defaults for the live threaded/process backend (real milliseconds;
#: compressed so a test cluster converges in wall-clock seconds).
LIVE_TUNABLES = ProtocolTunables(
    park_timeout=60.0,
    ack_timeout=500.0,
    max_claims=10,
    claim_backoff=15.0,
    grant_ttl=5_000.0,
    enable_bulletin=True,
)
