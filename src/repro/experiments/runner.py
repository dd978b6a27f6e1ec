"""Experiment runner: one config in, one measured run out.

Every figure/table module and every benchmark goes through
:func:`run_once`, which builds a deployment, instantiates the requested
protocol, attaches the paper's per-server open-loop clients, runs to
quiescence (bounded by a horizon), audits consistency and computes the
paper's metrics.

:func:`result_fingerprint` hashes everything a run measures (metrics,
per-request timelines, message/byte counts, audit verdicts, commit
slots), with process-global identifiers normalised out and the config
left out. Two runs are "the same run" iff their fingerprints are
byte-identical — the contract the determinism and serial-vs-parallel
equivalence tests pin down. :func:`config_key` hashes a config; the
claims table memoises its grid cells by it.
"""

from __future__ import annotations

import gc
import hashlib
import json
from dataclasses import dataclass, field, fields, replace
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.errors import ExperimentError
from repro.analysis.consistency import (
    AuditReport, audit, final_cells, stream_histories,
)
from repro.analysis.metrics import (
    StreamingMetrics, alt, arrival_rate, att, prk, throughput,
)
from repro.core.machines.protocols import ROWS
from repro.net.faults import FaultPlan
from repro.net.latency import lan_profile, wan_profile
from repro.net.topology import Topology
from repro.replication.client import attach_clients
from repro.replication.deployment import Deployment
from repro.replication.protocol import ReplicationProtocol
from repro.replication.requests import RequestRecord, new_request_id
from repro.replication.server import ReplicaConfig
from repro.sim.rng import RandomStreams, spawn_seed
from repro.workload.arrivals import ExponentialArrivals
from repro.workload.mix import OperationMix

__all__ = [
    "RunConfig",
    "RunResult",
    "run_once",
    "run_repeats",
    "repeat_seeds",
    "repeat_configs",
    "build_protocol",
    "config_key",
    "config_payload",
    "result_fingerprint",
    "result_payload",
]


@dataclass
class RunConfig:
    """Declarative description of one simulation run.

    Defaults reproduce the paper's setup: 5 replicas, full mesh LAN,
    exponential per-server arrivals, update-only workload.
    """

    protocol: str = "marp"
    n_replicas: int = 5
    seed: int = 0
    mean_interarrival: float = 50.0
    requests_per_client: int = 20
    write_fraction: float = 1.0
    keys: Tuple[str, ...] = ("x",)
    latency: str = "lan"  # "lan" | "wan"
    topology: str = "mesh"  # "mesh" | "random-costs"
    horizon: float = 5_000_000.0
    faults: Optional[FaultPlan] = None
    enable_bulletin: bool = True
    #: the protocol row's settings (MARP's ``itinerary``,
    #: ``read_strategy``, ``batch_size``, ``votes``; a baseline's quorums
    #: and timeouts): another row's setting is a ``TypeError``
    protocol_kwargs: Dict[str, Any] = field(default_factory=dict)
    # Hosts to leave out of a *second* audit computed at run time (the
    # availability experiment excludes permanently crashed replicas).
    # Part of the config so the excluded audit travels with the result
    # through process-pool workers, which cannot carry the live
    # deployment.
    audit_exclude: Tuple[str, ...] = ()
    # -- million-request data plane --------------------------------------
    #: Streaming accounting: terminal records sweep into constant-memory
    #: reservoirs (Welford/P²), commits into the online audit and rolling
    #: chain digests; RunResult.records comes back empty. Figure modules
    #: and exact-percentile runs need the records (False); the scale
    #: family must not keep them (True).
    streaming: bool = False
    #: Zipf skew over the key population (0 = uniform).
    key_skew: float = 0.0
    #: Generate a synthetic key population k0..k{n-1} (overrides `keys`).
    n_keys: Optional[int] = None

    def with_(self, **changes) -> "RunConfig":
        """A modified copy (convenience for sweeps)."""
        return replace(self, **changes)


@dataclass
class RunResult:
    """Everything measured in one run."""

    config: RunConfig
    protocol_name: str
    records: List[RequestRecord]
    committed: int
    failed: int
    open: int
    alt: float
    att: float
    prk: Dict[int, float]
    throughput: float
    control_messages: int
    control_bytes: int
    agent_migrations: int
    agent_bytes: int
    dropped: int
    audit: AuditReport
    sim_time: float
    deployment: Optional[Deployment] = None
    #: audit without ``config.audit_exclude`` hosts (None if unset)
    audit_excluded: Optional[AuditReport] = None
    #: ATT percentiles: exact (numpy) in full-record mode, P² estimates
    #: in streaming mode.
    att_p50: float = float("nan")
    att_p99: float = float("nan")
    #: streaming runs: (host, whole-history chain digest) per replica —
    #: plain data, so streaming determinism checks survive pickling.
    chain_digests: Tuple[Tuple[str, str], ...] = ()
    #: update arrivals per second of simulated time, measured as
    #: ``throughput`` measures commits (the scale knee's yardstick)
    arrival_rate: float = float("nan")

    @property
    def commit_slots(self) -> Tuple[Tuple[str, int, int, str], ...]:
        """The audit's global commit map (empty for a streaming run)."""
        return self.audit.commit_slots

    def without_deployment(self) -> "RunResult":
        """A copy safe to pickle across processes."""
        if self.deployment is None:
            return self
        return replace(self, deployment=None)

    @property
    def total_messages(self) -> int:
        return self.control_messages + self.agent_migrations

    @property
    def total_bytes(self) -> int:
        return self.control_bytes + self.agent_bytes


def config_payload(config: RunConfig) -> Dict[str, Any]:
    """Every field of a config as plain JSON-serialisable data."""
    payload: Dict[str, Any] = {}
    for item in fields(config):
        value = getattr(config, item.name)
        if item.name == "faults":
            value = value.payload() if value is not None else None
        elif isinstance(value, tuple):
            value = list(value)
        payload[item.name] = value
    return payload


def config_key(config: RunConfig) -> str:
    """Content hash of a config: the claims memo key (hex).

    Identical configs map to identical keys, and changing any field
    changes the key. Raises ``TypeError`` when ``protocol_kwargs`` holds
    values without a stable JSON form.
    """
    text = json.dumps(
        config_payload(config),
        sort_keys=True,
        separators=(",", ":"),
        allow_nan=False,
    )
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def result_payload(result: RunResult) -> Dict[str, Any]:
    """The measurable surface of a run as plain data.

    The config is not part of it: a config field that moves no simulated
    number leaves the payload, and so the fingerprint, as it was.

    Request identifiers come from a process-global counter, so their
    absolute values depend on how many runs the process executed before
    this one; they are normalised relative to the run's smallest id,
    making the payload identical in-process, in a pool worker and in a
    fresh interpreter.
    """
    ids = [r.request_id for r in result.records]
    base = min(ids) if ids else 0
    records: List[Dict[str, Any]] = [
        {
            "id": r.request_id - base,
            "home": r.home,
            "op": r.op,
            "key": r.key,
            "value": repr(r.value),
            "created_at": r.created_at,
            "dispatched_at": r.dispatched_at,
            "lock_acquired_at": r.lock_acquired_at,
            "completed_at": r.completed_at,
            "visits_to_lock": r.visits_to_lock,
            "total_visits": r.total_visits,
            "agent_id": r.agent_id,
            "status": r.status,
            "extra": {k: r.extra[k] for k in sorted(r.extra)},
        }
        for r in result.records
    ]
    audit = result.audit
    return {
        "protocol": result.protocol_name,
        "committed": result.committed,
        "failed": result.failed,
        "open": result.open,
        "alt": result.alt,
        "att": result.att,
        "prk": {str(k): v for k, v in sorted(result.prk.items())},
        "throughput": result.throughput,
        "control_messages": result.control_messages,
        "control_bytes": result.control_bytes,
        "agent_migrations": result.agent_migrations,
        "agent_bytes": result.agent_bytes,
        "dropped": result.dropped,
        "sim_time": result.sim_time,
        "audit": {
            "final_state_equal": audit.final_state_equal,
            "divergence_free": audit.divergence_free,
            "monotone": audit.monotone,
            "complete": audit.complete,
            "identical_histories": audit.identical_histories,
            "total_commits": audit.total_commits,
        },
        "commit_slots": [
            [key, version, request_id - base, value]
            for key, version, request_id, value in result.commit_slots
        ],
        "records": records,
        # Streaming runs carry no records/commit slots; their measured
        # surface is the percentile estimates + rolling chain digests.
        "att_p50": result.att_p50,
        "att_p99": result.att_p99,
        "chain_digests": [
            [host, digest] for host, digest in result.chain_digests
        ],
    }


def result_fingerprint(result: RunResult) -> str:
    """Stable content hash of :func:`result_payload`.

    Byte-identical fingerprints ⇔ identical measured runs; NaN metrics
    (e.g. ALT of a run with zero commits) serialise stably via repr.
    """
    text = json.dumps(
        result_payload(result),
        sort_keys=True,
        separators=(",", ":"),
        default=repr,
    )
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _build_deployment(config: RunConfig) -> Deployment:
    latency = {"lan": lan_profile, "wan": wan_profile}.get(config.latency)
    if latency is None:
        raise ExperimentError(f"unknown latency profile {config.latency!r}")
    replica_config = ReplicaConfig(enable_bulletin=config.enable_bulletin)
    topology = None
    if config.topology == "random-costs":
        streams = RandomStreams(config.seed)
        hosts = [f"s{i}" for i in range(1, config.n_replicas + 1)]
        topology = Topology.random_costs(hosts, streams.stream("topology"))
    elif config.topology != "mesh":
        raise ExperimentError(f"unknown topology {config.topology!r}")
    return Deployment(
        n_replicas=config.n_replicas,
        seed=config.seed,
        latency=latency(),
        topology=topology,
        faults=config.faults,
        replica_config=replica_config,
    )


def build_protocol(deployment: Deployment, config: RunConfig):
    """Instantiate the configured protocol over a deployment."""
    if config.protocol not in ROWS:
        raise ExperimentError(
            f"unknown protocol {config.protocol!r}; expected one of "
            f"{sorted(ROWS)}"
        )
    return ReplicationProtocol(
        deployment, config.protocol, **config.protocol_kwargs
    )


def run_once(config: RunConfig) -> RunResult:
    """Build, run and measure one simulation.

    When an observability hub is active (process-wide via
    :func:`repro.obs.enable`, since the deployment is built here), the
    run is wrapped in an ``experiment.run`` span and finishes with an
    ``experiment.summary`` event plus per-protocol summary counters.

    CPython's cyclic garbage collector is paused for the whole call and
    left as the caller had it on the way out, raise or return. No DES
    path builds a reference cycle (``docs/architecture.md``, "Memory";
    ``tests/experiments/test_cyclic_garbage.py``), so reference counting
    frees all a run discards, and the collector's passes would only
    re-walk the live heap.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _measure(config)
    finally:
        if collecting:
            gc.enable()


def _measure(config: RunConfig) -> RunResult:
    """:func:`run_once`'s body."""
    deployment = _build_deployment(config)
    protocol = build_protocol(deployment, config)
    hub = deployment.obs
    run_span = None
    if hub is not None:
        run_span = hub.start_span(
            "experiment.run", start=deployment.env.now,
            protocol=config.protocol, n_replicas=config.n_replicas,
            seed=config.seed, latency=config.latency,
            mean_interarrival=config.mean_interarrival,
        )
    streaming = config.streaming
    stream_metrics: Optional[StreamingMetrics] = None
    if streaming:
        stream_metrics = StreamingMetrics()
        # Request ids come from a process-global counter; burn one to
        # learn the run's first id so the rolling digests fold
        # *run-relative* ids and stay process-independent (the same
        # normalisation result_payload applies to the records).
        digests, check, check_rest = stream_histories(
            deployment, new_request_id() + 1, config.audit_exclude,
        )
        protocol.enable_streaming(stream_metrics.observe)

    keys = config.keys
    if config.n_keys is not None:
        keys = tuple(f"k{index}" for index in range(config.n_keys))
    attach_clients(
        protocol,
        ExponentialArrivals(config.mean_interarrival),
        OperationMix(
            write_fraction=config.write_fraction,
            keys=list(keys),
            key_skew=config.key_skew,
        ),
        max_requests_per_client=config.requests_per_client,
        keep_records=not streaming,
    )
    deployment.run(until=config.horizon)

    stats = deployment.network.stats
    if streaming:
        still_open = protocol.finalize_streaming()
        result = RunResult(
            config=config,
            protocol_name=protocol.name,
            records=[],
            committed=stream_metrics.committed,
            failed=stream_metrics.failed,
            open=still_open,
            alt=stream_metrics.alt(),
            att=stream_metrics.att(),
            prk=stream_metrics.prk(config.n_replicas),
            throughput=stream_metrics.throughput(),
            arrival_rate=stream_metrics.arrival_rate(),
            control_messages=stats.total_messages("control"),
            control_bytes=stats.total_bytes("control"),
            agent_migrations=stats.total_messages("agent"),
            agent_bytes=stats.total_bytes("agent"),
            dropped=stats.total_dropped(),
            audit=check.report(final_cells(deployment, check.hosts)),
            sim_time=deployment.env.now,
            deployment=deployment,
            audit_excluded=(
                check_rest.report(final_cells(deployment, check_rest.hosts))
                if check_rest is not None else None
            ),
            att_p50=stream_metrics.att_p50.result(),
            att_p99=stream_metrics.att_p99.result(),
            chain_digests=tuple(
                (host, digests[host].whole_digest())
                for host in deployment.hosts
            ),
        )
    else:
        records = protocol.records
        total_times = [
            r.total_time
            for r in records
            if r.is_write and r.status == "committed"
            and r.total_time is not None
        ]
        result = RunResult(
            config=config,
            protocol_name=protocol.name,
            records=records,
            committed=sum(1 for r in records if r.status == "committed"),
            failed=sum(1 for r in records if r.status == "failed"),
            open=protocol.open_requests(),
            alt=alt(records),
            att=att(records),
            prk=prk(records, config.n_replicas),
            throughput=throughput(records),
            arrival_rate=arrival_rate(records),
            control_messages=stats.total_messages("control"),
            control_bytes=stats.total_bytes("control"),
            agent_migrations=stats.total_messages("agent"),
            agent_bytes=stats.total_bytes("agent"),
            dropped=stats.total_dropped(),
            audit=audit(deployment),
            sim_time=deployment.env.now,
            deployment=deployment,
            audit_excluded=(
                audit(deployment, exclude=config.audit_exclude)
                if config.audit_exclude else None
            ),
            att_p50=(
                float(np.percentile(total_times, 50))
                if total_times else float("nan")
            ),
            att_p99=(
                float(np.percentile(total_times, 99))
                if total_times else float("nan")
            ),
        )
    if hub is not None:
        labels = {"protocol": result.protocol_name}
        hub.counter(
            "experiment_runs_total", "simulation runs measured",
            ("protocol",),
        ).inc(**labels)
        hub.counter(
            "experiment_committed_total", "requests committed per protocol",
            ("protocol",),
        ).inc(result.committed, **labels)
        hub.counter(
            "experiment_failed_total", "requests failed per protocol",
            ("protocol",),
        ).inc(result.failed, **labels)
        hub.event(
            "experiment.summary", time=result.sim_time, span=run_span,
            protocol=result.protocol_name, seed=config.seed,
            committed=result.committed, failed=result.failed,
            alt_ms=result.alt, att_ms=result.att,
            throughput_per_s=result.throughput,
            consistent=result.audit.consistent,
        )
        run_span.finish(end=result.sim_time)
    return result


def repeat_seeds(base_seed: int, repeats: int) -> List[int]:
    """Child seeds for ``repeats`` runs of one config.

    Stream-splitting derivation (:func:`repro.sim.rng.spawn_seed`)
    rather than ``base_seed + i``: additive seeds collide across sweep
    points whose base seeds are consecutive (point A's repeat 1 is point
    B's repeat 0), silently correlating supposedly independent repeats.
    Child seeds depend only on ``(base_seed, index)`` — not on the rest
    of the config — so protocol comparisons at one base seed still see
    common random numbers.
    """
    if repeats < 1:
        raise ExperimentError(f"repeats must be >= 1: {repeats}")
    return [
        spawn_seed(base_seed, "experiment.repeat", index)
        for index in range(repeats)
    ]


def repeat_configs(config: RunConfig, repeats: int) -> List[RunConfig]:
    """The per-repeat configs (one derived child seed each)."""
    return [
        config.with_(seed=seed)
        for seed in repeat_seeds(config.seed, repeats)
    ]


def run_repeats(
    config: RunConfig, repeats: int = 3, runner=None
) -> List[RunResult]:
    """Run the same config under ``repeats`` independently derived seeds.

    Routed through the (default or given) experiment engine — see
    :mod:`repro.experiments.parallel` — so repeats fan out over worker
    processes when it has them.
    """
    from repro.experiments.parallel import get_default_runner

    runner = runner if runner is not None else get_default_runner()
    return runner.run_repeats_many([config], repeats)[0]
