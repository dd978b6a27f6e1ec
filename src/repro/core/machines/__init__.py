"""The sans-IO protocol kernel.

One implementation of the paper's two algorithms, shared by every
execution backend:

* :mod:`~repro.core.machines.agent` — :class:`AgentMachine`,
  Algorithm 1 (tour → merge → decide → park/claim/back-off) over a
  picklable :class:`AgentCoreState`;
* :mod:`~repro.core.machines.replica` — :class:`ReplicaMachine`,
  Algorithm 2 (lock append, bulletin exchange, UPDATE grants, COMMIT
  application, release wake-ups), and :mod:`~repro.core.machines.reader`
  — :class:`ReaderMachine`, the client quorum read ([D5]), which the
  voting baselines' reads reuse;
* :mod:`~repro.core.machines.coordinators` — the message-passing
  baselines' write coordinators (the voting round, the Available Copies
  ladder, primary copy's forward), run through the same claim table,
  and :mod:`~repro.core.machines.participants` — their per-host
  participants (:class:`LockKeeper`, :class:`CopyKeeper`), attached to
  the same interpreter; :mod:`~repro.core.machines.protocols` — the
  table (:data:`ROWS`) of which of them each baseline runs, and how;
* :mod:`~repro.core.machines.events` / :mod:`~repro.core.machines.effects`
  — the typed inputs the machines consume and the typed effects they
  emit;
* :mod:`~repro.core.machines.interpreter` — :class:`EffectInterpreter`,
  the one place that says what each effect means (which input it feeds
  back, the parked and claim tables, timer tokens, milestone spans and
  metrics), over a small :class:`Substrate` a backend supplies — clock,
  transport, timers, randomness, record-keeping. The DES
  :class:`~repro.replication.server.ReplicaServer`, the live
  :class:`~repro.runtime.host.HostRuntime` and the replay harness are
  the three substrates;
* :mod:`~repro.core.machines.structures` / :mod:`~repro.core.machines.wire`
  / :mod:`~repro.core.machines.table` / :mod:`~repro.core.machines.priority`
  — the protocol-owned data structures and the priority calculation;
* :mod:`~repro.core.machines.config` — the single home of every
  protocol tunable (:class:`ProtocolTunables`);
* :mod:`~repro.core.machines.replay` — a deterministic script-replay
  harness that runs whole protocol scenarios with no simulator, no
  threads and no randomness, including fault primitives (partitions,
  per-message drop/duplicate/delay, agent churn);
* :mod:`~repro.core.machines.audit` — the one consistency checker
  (:func:`check_histories`), over plain commit records and store
  cells, that the DES audit, the live audit and the adversary share;
* :mod:`~repro.core.machines.adversary` — a seeded, property-based
  schedule adversary over the harness: a JSON-serializable fault DSL,
  safety/liveness checkers, a generator, a shrinker and campaign
  tooling (see ``docs/fault-campaigns.md``).

The kernel imports nothing from :mod:`repro.core` (outside this
package), :mod:`repro.replication`, :mod:`repro.sim`, :mod:`repro.net`
or :mod:`repro.runtime` — only :mod:`repro.errors` and
:mod:`repro.agents.identity`. (The adversary's campaign runner binds
to :mod:`repro.obs` lazily, for counters, without dragging it into
kernel imports.) See ``docs/architecture.md``.
"""

from repro.core.machines.intern import Interner
from repro.core.machines.structures import (
    CommitRecord,
    HistoryLog,
    LockEntry,
    LockingList,
    LockView,
    UpdatedList,
    VersionedStore,
    VersionedValue,
)
from repro.core.machines.wire import (
    SharedView,
    Transform,
    UpdatePayload,
    VisitData,
    WriteOp,
)
from repro.core.machines.table import LockingTable
from repro.core.machines.priority import (
    OTHER,
    STALEMATE,
    UNDECIDED,
    WIN,
    Decision,
    decide,
    rank_queue,
)
from repro.core.machines.config import (
    DES_TUNABLES,
    LIVE_TUNABLES,
    ProtocolTunables,
)
from repro.core.machines.events import (
    Arrived,
    MsgReceived,
    ReplicaDown,
    TimerFired,
)
from repro.core.machines.effects import (
    Backoff,
    Broadcast,
    CancelTimer,
    ClaimResolved,
    ClaimStarted,
    CommitApplied,
    Dispose,
    Done,
    Effect,
    Granted,
    LockWon,
    Migrate,
    Nacked,
    Note,
    Park,
    PostBulletin,
    QueueChanged,
    Recovered,
    ReleaseNotify,
    Send,
    SetTimer,
    Visit,
)
from repro.core.machines.replica import ReplicaMachine
from repro.core.machines.reader import ReaderMachine
from repro.core.machines.coordinators import (
    ForwardMachine,
    LadderMachine,
    VotingMachine,
)
from repro.core.machines.participants import CopyKeeper, LockKeeper
from repro.core.machines.protocols import (
    ROWS, ProtocolRow, check_votes, protocol_row,
)
from repro.core.machines.agent import AgentCoreState, AgentMachine
from repro.core.machines.interpreter import (
    EffectInterpreter,
    Resident,
    Substrate,
)
from repro.core.machines.audit import AuditReport, check_histories
from repro.core.machines.replay import (
    DROPPABLE_KINDS,
    RELIABLE_KINDS,
    EventBudgetExceeded,
    KernelHarness,
    replay,
)
from repro.core.machines.adversary import (
    CampaignFailure,
    CampaignReport,
    CrashOp,
    DelayOp,
    DropOp,
    DuplicateOp,
    HealOp,
    InvariantViolation,
    KillOp,
    PartitionOp,
    RestartOp,
    Schedule,
    ScheduleOutcome,
    SubmitOp,
    check_schedule,
    generate_schedule,
    run_campaign,
    run_schedule,
    shrink_schedule,
)

__all__ = [
    # structures
    "CommitRecord", "HistoryLog", "Interner", "LockEntry", "LockingList",
    "LockView", "UpdatedList", "VersionedStore", "VersionedValue",
    # wire
    "SharedView", "Transform", "UpdatePayload", "VisitData", "WriteOp",
    # table + priority
    "LockingTable",
    "OTHER", "STALEMATE", "UNDECIDED", "WIN",
    "Decision", "decide", "rank_queue",
    # config
    "DES_TUNABLES", "LIVE_TUNABLES", "ProtocolTunables",
    # events
    "Arrived", "MsgReceived", "ReplicaDown", "TimerFired",
    # effects
    "Backoff", "Broadcast", "CancelTimer", "ClaimResolved", "ClaimStarted",
    "CommitApplied", "Dispose", "Done", "Effect", "Granted", "LockWon",
    "Migrate", "Nacked", "Note", "Park", "PostBulletin", "QueueChanged",
    "Recovered", "ReleaseNotify", "Send", "SetTimer", "Visit",
    # machines + interpreter + harness
    "ReplicaMachine", "ReaderMachine", "AgentCoreState", "AgentMachine",
    "VotingMachine", "LadderMachine", "ForwardMachine",
    "LockKeeper", "CopyKeeper",
    # the baselines as rows
    "ProtocolRow", "ROWS", "protocol_row", "check_votes",
    "EffectInterpreter", "Resident", "Substrate",
    "KernelHarness", "replay", "EventBudgetExceeded", "DROPPABLE_KINDS",
    "RELIABLE_KINDS",
    # the one consistency checker
    "AuditReport", "check_histories",
    # adversary
    "Schedule", "ScheduleOutcome", "InvariantViolation",
    "SubmitOp", "CrashOp", "RestartOp", "PartitionOp", "HealOp",
    "DropOp", "DuplicateOp", "DelayOp", "KillOp",
    "run_schedule", "check_schedule", "generate_schedule",
    "shrink_schedule", "run_campaign", "CampaignFailure", "CampaignReport",
]
