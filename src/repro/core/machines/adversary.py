"""Property-based schedule adversary for the protocol kernel.

The replay harness (:mod:`~repro.core.machines.replay`) can realize
interleavings neither execution backend reaches naturally; this module
weaponizes it. A :class:`Schedule` is a declarative, JSON-serializable
fault script — submitted updates plus timed replica crashes/restarts,
network partitions, per-message drop/duplicate/delay directives and
mid-claim agent churn — and :func:`check_schedule` runs one through a
:class:`~repro.core.machines.replay.KernelHarness` and asserts the two
properties the paper's correctness argument rests on:

**Safety ([D1], Theorems 1-2).** Never two committed winners per
round: every committed ``(key, version)`` cell holds exactly one
``(request, value)`` across all replica histories, version chains per
key are gapless from 1, only committed (or churned-away) agents
own cells, and every replica ends on the same store ("write-all
applied": a restarted replica has caught up) — the divergence, gap,
ownership and convergence checks of the kernel's one consistency
checker (:mod:`~repro.core.machines.audit`).

**Liveness under heal.** Once faults stop — `run` heals partitions and
restarts every crashed replica at the schedule horizon — every
submitted update whose agent was not killed either commits or aborts
within a bounded settle window.

Failures raise :class:`InvariantViolation` carrying the full schedule
JSON, so a Hypothesis falsifying example — or a long random campaign
via :func:`run_campaign` — prints a script that replays the exact run.
:func:`shrink_schedule` greedily minimizes a failing schedule, and the
regression corpus under ``tests/machines/corpus/`` re-checks every
promoted script on every test run. See ``docs/fault-campaigns.md``.

The generator stays inside the paper's fault model on purpose (bounds
below): at most a minority of replicas down at any instant, reliable
(buffered, never lost) channels across partitions, commit/abort/sync
propagation never dropped, and grant TTLs that comfortably exceed any
live claim round plus the fault horizon. Schedules outside that
envelope can violate one-copy serializability *by design* — MARP's
ceiling argument genuinely needs those assumptions — so the adversary
explores every corner of the claimed envelope and nothing beyond it.
"""

from __future__ import annotations

import json
import os
import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.machines.config import ProtocolTunables
from repro.core.machines.replay import EventBudgetExceeded, KernelHarness

__all__ = [
    "SCHEDULE_VERSION",
    "SubmitOp", "CrashOp", "RestartOp", "PartitionOp", "HealOp",
    "DropOp", "DuplicateOp", "DelayOp", "KillOp",
    "Schedule", "ScheduleOutcome", "InvariantViolation",
    "run_schedule", "check_schedule",
    "generate_schedule", "shrink_schedule",
    "CampaignFailure", "CampaignReport", "run_campaign",
    "campaign_rng", "reproduction_command",
]

#: Version stamp of the schedule JSON format.
SCHEDULE_VERSION = 1

# ---------------------------------------------------------------------------
# Generator bounds. These define the fault envelope the adversary explores;
# the grant-TTL floor is derived from them so a TTL can never expire while
# a live claim (or a partition that buffered its COMMIT) is still in
# flight — expiry past that point is the documented unsafe corner of the
# paper's model, not a protocol bug.
# ---------------------------------------------------------------------------

#: Simulated-time horizon: all scheduled faults happen before this, and
#: `run` heals everything still broken at exactly this time.
HORIZON = 300.0
#: Largest per-message extra delay a DelayOp/DuplicateOp may add.
MAX_EXTRA_DELAY = 30.0
#: Message-index range fault directives are drawn from.
MAX_MSG_INDEX = 300
#: Fixed claim-abort budget for generated schedules.
MAX_CLAIMS = 10


def grant_ttl_floor(ack_timeout: float, msg_latency: float = 1.0) -> float:
    """Smallest in-model grant TTL for the generator's bounds.

    A grant must outlive (a) any live claim round — bounded by the ack
    timeout plus a round trip with worst-case extra delays — and (b)
    any partition/crash window that buffered the corresponding COMMIT,
    bounded by the fault horizon.
    """
    return HORIZON + ack_timeout + 4 * (msg_latency + MAX_EXTRA_DELAY)


# ---------------------------------------------------------------------------
# The schedule DSL
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SubmitOp:
    """Create one update agent at ``home`` writing ``key = value``."""

    home: str
    request_id: int
    key: str
    value: Any
    at: float = 0.0


@dataclass(frozen=True)
class CrashOp:
    """Fail-stop ``host`` at time ``at``."""

    host: str
    at: float


@dataclass(frozen=True)
class RestartOp:
    """Bring ``host`` back at ``at``; it catches up from a majority of
    its peers before it serves again."""

    host: str
    at: float


@dataclass(frozen=True)
class PartitionOp:
    """Split the cluster into ``groups`` at ``at`` (buffering cut)."""

    groups: Tuple[Tuple[str, ...], ...]
    at: float


@dataclass(frozen=True)
class HealOp:
    """Heal the partition at ``at``, delivering buffered messages."""

    at: float


@dataclass(frozen=True)
class DropOp:
    """Drop the ``nth`` message (droppable kinds only)."""

    nth: int


@dataclass(frozen=True)
class DuplicateOp:
    """Deliver the ``nth`` message twice, ``extra_delay`` apart."""

    nth: int
    extra_delay: float = 0.0


@dataclass(frozen=True)
class DelayOp:
    """Add ``by`` to the ``nth`` message's latency."""

    nth: int
    by: float


@dataclass(frozen=True)
class KillOp:
    """Vanish the ``agent``-th submitted agent (0-based) at ``at``."""

    agent: int
    at: float


#: op-name <-> dataclass registry for (de)serialization.
_OP_TYPES: Dict[str, type] = {
    "submit": SubmitOp,
    "crash": CrashOp,
    "restart": RestartOp,
    "partition": PartitionOp,
    "heal": HealOp,
    "drop": DropOp,
    "duplicate": DuplicateOp,
    "delay": DelayOp,
    "kill": KillOp,
}
_OP_NAMES = {cls: name for name, cls in _OP_TYPES.items()}


def _op_to_dict(op) -> Dict[str, Any]:
    d: Dict[str, Any] = {"op": _OP_NAMES[type(op)]}
    for f in op.__dataclass_fields__:
        value = getattr(op, f)
        if isinstance(value, tuple):
            value = [list(g) if isinstance(g, tuple) else g for g in value]
        d[f] = value
    return d


def _op_from_dict(d: Dict[str, Any]):
    kind = d.get("op")
    cls = _OP_TYPES.get(kind)
    if cls is None:
        raise ValueError(f"unknown schedule op {kind!r}")
    kwargs = {k: v for k, v in d.items() if k != "op"}
    if cls is PartitionOp:
        kwargs["groups"] = tuple(tuple(g) for g in kwargs["groups"])
    return cls(**kwargs)


@dataclass(frozen=True)
class Schedule:
    """One complete, replayable adversary scenario.

    A schedule is a pure value: hosts are always ``s1..sN``, tunables
    are the :class:`~repro.core.machines.config.ProtocolTunables`
    keyword overrides, and everything else is the workload
    (``submits``) plus the fault script (``ops``). Running it through
    :func:`check_schedule` is a deterministic function of this value.
    """

    n_hosts: int
    tunables: Dict[str, Any] = field(default_factory=dict)
    submits: Tuple[SubmitOp, ...] = ()
    ops: Tuple[Any, ...] = ()
    horizon: float = HORIZON
    hop_latency: float = 1.0
    msg_latency: float = 1.0
    version: int = SCHEDULE_VERSION

    @property
    def hosts(self) -> Tuple[str, ...]:
        """The host names, ``s1..sN``."""
        return tuple(f"s{i}" for i in range(1, self.n_hosts + 1))

    def protocol_tunables(self) -> ProtocolTunables:
        """The tunables object the harness machines will read."""
        return ProtocolTunables(**self.tunables)

    def validate(self) -> None:
        """Raise ``ValueError`` on a malformed schedule."""
        if self.version != SCHEDULE_VERSION:
            raise ValueError(
                f"schedule version {self.version} != {SCHEDULE_VERSION}"
            )
        if self.n_hosts < 1:
            raise ValueError("n_hosts must be >= 1")
        hosts = set(self.hosts)
        ids = [s.request_id for s in self.submits]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate request ids: {ids}")
        for submit in self.submits:
            if submit.home not in hosts:
                raise ValueError(f"unknown home {submit.home!r}")
        for op in self.ops:
            if isinstance(op, (CrashOp, RestartOp)) and op.host not in hosts:
                raise ValueError(f"unknown host {op.host!r} in {op}")
            if isinstance(op, PartitionOp):
                for group in op.groups:
                    for host in group:
                        if host not in hosts:
                            raise ValueError(
                                f"unknown host {host!r} in partition"
                            )
            if isinstance(op, KillOp) and not (
                0 <= op.agent < len(self.submits)
            ):
                raise ValueError(f"kill index {op.agent} out of range")
        self.protocol_tunables()  # bounds-check the overrides

    # -- serialization --------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """Plain-data rendering (stable under JSON round-trips)."""
        return {
            "version": self.version,
            "n_hosts": self.n_hosts,
            "tunables": dict(self.tunables),
            "horizon": self.horizon,
            "hop_latency": self.hop_latency,
            "msg_latency": self.msg_latency,
            "submits": [_op_to_dict(s) for s in self.submits],
            "ops": [_op_to_dict(op) for op in self.ops],
        }

    def to_json(self) -> str:
        """Canonical JSON text of this schedule."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Schedule":
        """Inverse of :meth:`to_dict`."""
        submits = tuple(
            SubmitOp(**{k: v for k, v in s.items() if k != "op"})
            for s in data.get("submits", ())
        )
        ops = tuple(_op_from_dict(op) for op in data.get("ops", ()))
        return cls(
            n_hosts=data["n_hosts"],
            tunables=dict(data.get("tunables", {})),
            submits=submits,
            ops=ops,
            horizon=data.get("horizon", HORIZON),
            hop_latency=data.get("hop_latency", 1.0),
            msg_latency=data.get("msg_latency", 1.0),
            version=data.get("version", SCHEDULE_VERSION),
        )

    @classmethod
    def from_json(cls, text: str) -> "Schedule":
        """Inverse of :meth:`to_json`."""
        return cls.from_dict(json.loads(text))

    def save(self, path: str) -> str:
        """Write the schedule JSON to ``path``; returns the path."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())
            fh.write("\n")
        return path

    @classmethod
    def load(cls, path: str) -> "Schedule":
        """Read a schedule JSON file."""
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(fh.read())


# ---------------------------------------------------------------------------
# Execution + invariants
# ---------------------------------------------------------------------------

#: Hard per-schedule event budget; exceeding it is a liveness failure.
DEFAULT_MAX_EVENTS = 250_000


class InvariantViolation(AssertionError):
    """A schedule broke safety or liveness; carries the replay script.

    The message embeds the schedule JSON so any reporter that prints
    the exception (pytest, Hypothesis's falsifying example, the
    campaign CLI) hands the reader a directly replayable script.
    """

    def __init__(self, kind: str, detail: str, schedule: Schedule) -> None:
        self.kind = kind
        self.detail = detail
        self.schedule = schedule
        super().__init__(
            f"[{kind}] {detail}\nreplayable schedule:\n{schedule.to_json()}"
        )


@dataclass
class ScheduleOutcome:
    """What one checked schedule did (when no invariant broke)."""

    statuses: Dict[int, str]
    chains: Dict[str, List[Tuple[int, Any]]]
    killed: int
    events: int
    #: view-exchange coverage: visits served a delta / returning
    #: visitors served a full snapshot (journal reset or base evicted)
    deltas: int = 0
    fallbacks: int = 0
    #: Locking-List entries that lapsed (their agent fell silent)
    evicted: int = 0
    #: claims opened, by path ("round", "visit", "behind")
    claims: Dict[str, int] = field(default_factory=dict)


def _settle_window(tunables: ProtocolTunables, msg_latency: float) -> float:
    """Sim-time the cluster gets to converge after the heal."""
    claim_round = tunables.ack_timeout + 4 * tunables.claim_backoff \
        + 8 * msg_latency
    return (
        tunables.grant_ttl
        + 40 * tunables.park_timeout
        + (tunables.max_claims + 2) * claim_round
        + 500.0
    )


def run_schedule(
    schedule: Schedule, max_events: int = DEFAULT_MAX_EVENTS
) -> Tuple[KernelHarness, Tuple]:
    """Execute a schedule: fault phase, forced heal, settle phase.

    Returns ``(harness, agent_ids)`` — the drained world plus the agent
    ids in submit order. Raises
    :class:`~repro.core.machines.replay.EventBudgetExceeded` if either
    phase livelocks past ``max_events``.
    """
    schedule.validate()
    harness = KernelHarness(
        schedule.hosts,
        tunables=schedule.protocol_tunables(),
        hop_latency=schedule.hop_latency,
        msg_latency=schedule.msg_latency,
    )
    agent_ids = tuple(
        harness.submit(
            s.home, s.request_id, s.key, s.value, at=s.at, created_seq=i
        )
        for i, s in enumerate(schedule.submits)
    )
    for op in schedule.ops:
        if isinstance(op, CrashOp):
            harness.crash(op.host, at=op.at)
        elif isinstance(op, RestartOp):
            harness.restart(op.host, at=op.at)
        elif isinstance(op, PartitionOp):
            harness.set_partition(op.groups, at=op.at)
        elif isinstance(op, HealOp):
            harness.heal_partition(at=op.at)
        elif isinstance(op, DropOp):
            harness.drop_message(op.nth)
        elif isinstance(op, DuplicateOp):
            harness.duplicate_message(op.nth, op.extra_delay)
        elif isinstance(op, DelayOp):
            harness.delay_message(op.nth, op.by)
        elif isinstance(op, KillOp):
            harness.kill(agent_ids[op.agent], at=op.at)
        else:
            raise ValueError(f"unknown schedule op {op!r}")

    # Fault phase: everything the script threw at the cluster.
    harness.run(until=schedule.horizon, max_events=max_events)
    # Faults stop: heal the partition, restart every crashed replica.
    harness.heal_partition()
    for host in sorted(harness.down):
        harness.restart(host)
    # Settle phase: liveness-under-heal must resolve inside this window.
    deadline = schedule.horizon + _settle_window(
        schedule.protocol_tunables(), schedule.msg_latency
    )
    harness.run(until=deadline, max_events=max_events)
    return harness, agent_ids


def _liveness_violations(
    harness: KernelHarness, schedule: Schedule, agent_ids: Tuple
) -> List[str]:
    """Liveness under heal: every surviving agent's update commits or
    aborts."""
    violations = []
    for submit, agent_id in zip(schedule.submits, agent_ids, strict=True):
        if agent_id in harness.killed:
            continue
        status = harness.results.get(submit.request_id)
        if status not in ("committed", "failed"):
            violations.append(
                f"request {submit.request_id} (key {submit.key!r} from "
                f"{submit.home}) never resolved after the heal: "
                f"status={status!r}"
            )
    return violations


def check_schedule(
    schedule: Schedule, max_events: int = DEFAULT_MAX_EVENTS
) -> ScheduleOutcome:
    """Run a schedule and assert safety + liveness-under-heal.

    Returns a :class:`ScheduleOutcome` on success; raises
    :class:`InvariantViolation` (an ``AssertionError`` carrying the
    replayable schedule JSON) on any breach, including an exceeded
    event budget (livelock).
    """
    try:
        harness, agent_ids = run_schedule(schedule, max_events=max_events)
    except EventBudgetExceeded as exc:
        raise InvariantViolation("livelock", str(exc), schedule) from exc
    report = harness.audit()
    claims: Dict[str, int] = Counter()
    for interpreter in harness.interpreters.values():
        claims.update(interpreter.claim_paths)
    safety = [
        problem
        for check in (
            "divergence_free", "gapless", "statuses_match",
            "final_state_equal",
        )
        for problem in report.findings[check]
    ]
    liveness = _liveness_violations(harness, schedule, agent_ids)
    if safety or liveness:
        kind = "safety" if safety else "liveness"
        raise InvariantViolation(
            kind, "; ".join(safety + liveness), schedule
        )
    return ScheduleOutcome(
        statuses=harness.statuses(),
        chains=harness.commit_chains(),
        killed=len(harness.killed),
        events=harness.events_processed,
        deltas=sum(r.deltas_served for r in harness.replicas.values()),
        fallbacks=sum(r.fallbacks_served for r in harness.replicas.values()),
        evicted=sum(r.evicted for r in harness.replicas.values()),
        claims=claims,
    )


# ---------------------------------------------------------------------------
# Seeded generation
# ---------------------------------------------------------------------------


def generate_schedule(
    rng: random.Random, n_hosts: Optional[int] = None
) -> Schedule:
    """Draw one randomized in-model schedule from ``rng``.

    Pure function of the RNG state: the CLI's per-index
    :func:`campaign_rng` makes every campaign schedule individually
    reproducible. The draw respects the fault envelope documented in
    the module docstring — minority crashes, healed-by-horizon
    partitions, bounded delays, TTLs above :func:`grant_ttl_floor`.
    """
    n = n_hosts or rng.choice((3, 4, 5))
    hosts = tuple(f"s{i}" for i in range(1, n + 1))
    ack_timeout = round(rng.uniform(10.0, 60.0), 1)
    tunables = {
        "park_timeout": round(rng.uniform(5.0, 40.0), 1),
        "ack_timeout": ack_timeout,
        "claim_backoff": round(rng.uniform(1.0, 20.0), 1),
        "max_claims": MAX_CLAIMS,
        "grant_ttl": round(
            grant_ttl_floor(ack_timeout) * rng.uniform(2.0, 4.0), 1
        ),
    }
    # Workload: a handful of agents biased onto one hot key so conflict
    # rounds (the interesting case) actually form.
    n_agents = rng.randint(1, 6)
    keys = ("x",) if rng.random() < 0.6 else ("x", "y")
    submits = tuple(
        SubmitOp(
            home=rng.choice(hosts),
            request_id=i + 1,
            key=rng.choice(keys),
            value=f"v{i + 1}",
            # Mostly an early burst (maximum contention), occasionally a
            # straggler landing mid-fault-window.
            at=round(
                rng.uniform(0.0, 60.0)
                if rng.random() < 0.8
                else rng.uniform(60.0, HORIZON * 0.6),
                1,
            ),
        )
        for i in range(n_agents)
    )
    ops: List[Any] = []
    # Crashes: never more than a minority down at once — windows are
    # confined to a crashable subset of floor((N-1)/2) hosts.
    f = (n - 1) // 2
    if f > 0 and rng.random() < 0.8:
        for host in rng.sample(hosts, k=f):
            for _ in range(rng.randint(1, 2)):
                down_at = round(rng.uniform(0.0, HORIZON * 0.5), 1)
                up_at = round(
                    min(down_at + rng.uniform(3.0, 80.0), HORIZON - 1.0), 1
                )
                ops.append(CrashOp(host, down_at))
                ops.append(RestartOp(host, up_at))
    # At most one partition window, healed well before the horizon.
    if rng.random() < 0.5:
        shuffled = list(hosts)
        rng.shuffle(shuffled)
        cut = rng.randint(1, n - 1)
        groups = (tuple(shuffled[:cut]), tuple(shuffled[cut:]))
        start = round(rng.uniform(0.0, HORIZON * 0.4), 1)
        span = round(rng.uniform(5.0, HORIZON * 0.3), 1)
        ops.append(PartitionOp(groups, start))
        ops.append(HealOp(round(start + span, 1)))
    # Per-message perturbations on the deterministic send index. Biased
    # toward low indexes, where the live claim traffic actually is.
    for _ in range(rng.randint(0, 5)):
        nth = rng.randrange(
            MAX_MSG_INDEX if rng.random() < 0.3 else MAX_MSG_INDEX // 3
        )
        flavor = rng.random()
        if flavor < 0.4:
            ops.append(DropOp(nth))
        elif flavor < 0.7:
            ops.append(
                DuplicateOp(nth, round(rng.uniform(0.0, MAX_EXTRA_DELAY), 1))
            )
        else:
            ops.append(
                DelayOp(nth, round(rng.uniform(1.0, MAX_EXTRA_DELAY), 1))
            )
    # Mid-claim churn: occasionally vanish one agent outright.
    if n_agents > 1 and rng.random() < 0.25:
        ops.append(
            KillOp(
                agent=rng.randrange(n_agents),
                at=round(rng.uniform(5.0, HORIZON * 0.8), 1),
            )
        )
    return Schedule(
        n_hosts=n, tunables=tunables, submits=submits, ops=tuple(ops)
    )


# ---------------------------------------------------------------------------
# Shrinking
# ---------------------------------------------------------------------------


def _without_submit(schedule: Schedule, index: int) -> Schedule:
    """Remove one submit, dropping/re-aiming kill ops accordingly."""
    submits = tuple(
        s for i, s in enumerate(schedule.submits) if i != index
    )
    ops: List[Any] = []
    for op in schedule.ops:
        if isinstance(op, KillOp):
            if op.agent == index:
                continue
            if op.agent > index:
                op = KillOp(agent=op.agent - 1, at=op.at)
        ops.append(op)
    return Schedule(
        n_hosts=schedule.n_hosts,
        tunables=schedule.tunables,
        submits=submits,
        ops=tuple(ops),
        horizon=schedule.horizon,
        hop_latency=schedule.hop_latency,
        msg_latency=schedule.msg_latency,
    )


def _without_op(schedule: Schedule, index: int) -> Schedule:
    ops = tuple(op for i, op in enumerate(schedule.ops) if i != index)
    return Schedule(
        n_hosts=schedule.n_hosts,
        tunables=schedule.tunables,
        submits=schedule.submits,
        ops=ops,
        horizon=schedule.horizon,
        hop_latency=schedule.hop_latency,
        msg_latency=schedule.msg_latency,
    )


def shrink_schedule(
    schedule: Schedule,
    still_fails: Optional[Callable[[Schedule], bool]] = None,
    max_rounds: int = 10,
) -> Schedule:
    """Greedily minimize a failing schedule.

    Repeatedly tries to delete fault ops and submits while
    ``still_fails`` (default: :func:`check_schedule` raises
    :class:`InvariantViolation`) keeps holding, until a fixpoint or
    ``max_rounds``. Complements Hypothesis's own shrinking for
    failures found outside a property run (e.g. by the campaign CLI).
    """
    if still_fails is None:
        def still_fails(candidate: Schedule) -> bool:
            try:
                check_schedule(candidate)
            except InvariantViolation:
                return True
            return False

    current = schedule
    for _ in range(max_rounds):
        progressed = False
        index = len(current.ops) - 1
        while index >= 0:
            candidate = _without_op(current, index)
            if still_fails(candidate):
                current = candidate
                progressed = True
            index -= 1
        index = len(current.submits) - 1
        while index >= 0 and len(current.submits) > 1:
            candidate = _without_submit(current, index)
            if still_fails(candidate):
                current = candidate
                progressed = True
            index -= 1
        if not progressed:
            break
    return current


# ---------------------------------------------------------------------------
# Campaigns
# ---------------------------------------------------------------------------


@dataclass
class CampaignFailure:
    """One schedule that broke an invariant during a campaign."""

    index: int
    kind: str
    detail: str
    schedule: Schedule
    shrunk: Schedule
    path: Optional[str] = None


@dataclass
class CampaignReport:
    """Aggregate result of a seeded adversary campaign."""

    seed: int
    schedules: int
    passed: int
    failures: List[CampaignFailure]
    events: int
    deltas: int = 0
    fallbacks: int = 0
    evicted: int = 0
    #: claims opened across the campaign, by path
    claims: Dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """True when every schedule upheld both invariants."""
        return not self.failures

    def summary(self) -> str:
        """One-line human summary."""
        return (
            f"adversary campaign: {self.passed}/{self.schedules} schedules "
            f"ok, {len(self.failures)} violations, "
            f"{self.events} harness events, {self.deltas} deltas + "
            f"{self.fallbacks} snapshot fallbacks served, "
            f"{self.evicted} evicted, claims "
            + " / ".join(
                f"{self.claims.get(path, 0)} {path}"
                for path in ("round", "visit", "behind")
            )
            + f" (seed {self.seed})"
        )


def campaign_rng(seed: int, index: int) -> random.Random:
    """The RNG for campaign schedule ``index`` under ``seed``.

    String-seeded so every schedule is reproducible in isolation —
    :func:`reproduction_command` names exactly this stream.
    """
    return random.Random(f"adversary:{seed}:{index}")


def reproduction_command(seed: int, index: int) -> str:
    """Shell command replaying one campaign schedule by itself."""
    return (
        f"PYTHONPATH=src python -m repro adversary "
        f"--seed {seed} --index {index}"
    )


def run_campaign(
    n_schedules: int,
    seed: int = 0,
    n_hosts: Optional[int] = None,
    save_failures: Optional[str] = None,
    shrink: bool = True,
    check: Callable[[Schedule], Any] = check_schedule,
    on_progress: Optional[Callable[[int, int], None]] = None,
) -> CampaignReport:
    """Run ``n_schedules`` generated schedules; collect every violation.

    Each schedule comes from its own :func:`campaign_rng` stream.
    Failures are shrunk (unless ``shrink=False``) and, when
    ``save_failures`` names a directory, written there as replayable
    JSON ready for promotion into the regression corpus. Campaign
    counters are mirrored into the process-wide observability hub when
    one is enabled (``adversary_schedules_total{outcome=}``,
    ``adversary_violations_total{kind=}``, ``adversary_events_total``).
    """
    # Lazy obs edge: the kernel stays import-pure unless a hub is used.
    hub = None
    try:
        from repro.obs.hub import get_hub

        hub = get_hub()
    except ImportError:  # pragma: no cover - obs is part of the package
        pass
    c_schedules = c_violations = c_events = None
    if hub is not None:
        c_schedules = hub.counter(
            "adversary_schedules_total",
            "adversary schedules checked", ("outcome",),
        )
        c_violations = hub.counter(
            "adversary_violations_total",
            "invariant violations found", ("kind",),
        )
        c_events = hub.counter(
            "adversary_events_total", "harness events across the campaign"
        )

    passed = 0
    events = deltas = fallbacks = evicted = 0
    claims: Dict[str, int] = Counter()
    failures: List[CampaignFailure] = []
    for index in range(n_schedules):
        schedule = generate_schedule(
            campaign_rng(seed, index), n_hosts=n_hosts
        )
        try:
            outcome = check(schedule)
            passed += 1
            if isinstance(outcome, ScheduleOutcome):
                events += outcome.events
                deltas += outcome.deltas
                fallbacks += outcome.fallbacks
                evicted += outcome.evicted
                claims.update(outcome.claims)
                if c_events is not None:
                    c_events.inc(outcome.events)
            if c_schedules is not None:
                c_schedules.inc(outcome="ok")
        except InvariantViolation as exc:
            if c_schedules is not None:
                c_schedules.inc(outcome="violation")
            if c_violations is not None:
                c_violations.inc(kind=exc.kind)

            def _fails(candidate: Schedule) -> bool:
                try:
                    check(candidate)
                except InvariantViolation:
                    return True
                return False

            shrunk = (
                shrink_schedule(schedule, _fails) if shrink else schedule
            )
            failure = CampaignFailure(
                index=index,
                kind=exc.kind,
                detail=exc.detail,
                schedule=schedule,
                shrunk=shrunk,
            )
            if save_failures is not None:
                os.makedirs(save_failures, exist_ok=True)
                failure.path = shrunk.save(
                    os.path.join(
                        save_failures,
                        f"adversary_failure_seed{seed}_i{index}.json",
                    )
                )
            failures.append(failure)
        if on_progress is not None:
            on_progress(index + 1, n_schedules)
    return CampaignReport(
        seed=seed,
        schedules=n_schedules,
        passed=passed,
        failures=failures,
        events=events,
        deltas=deltas,
        fallbacks=fallbacks,
        evicted=evicted,
        claims=claims,
    )
