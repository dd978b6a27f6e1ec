"""Experiment runner: one config in, one measured run out.

Every figure/table module and every benchmark goes through
:func:`run_once`, which builds a deployment, instantiates the requested
protocol, attaches the paper's per-server open-loop clients, runs to
quiescence (bounded by a horizon), audits consistency and computes the
paper's metrics.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.errors import ExperimentError
from repro.analysis.consistency import (
    AuditReport, ChainDigest, audit, streaming_audit,
)
from repro.analysis.metrics import StreamingMetrics, alt, att, prk, throughput
from repro.core.machines import ROWS
from repro.net.faults import FaultPlan
from repro.net.latency import hybrid_profile, lan_profile, wan_profile
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
    latency: str = "lan"  # "lan" | "wan" | "hybrid"
    topology: str = "mesh"  # "mesh" | "random-costs"
    horizon: float = 5_000_000.0
    faults: Optional[FaultPlan] = None
    # substrate knobs
    agent_service_time: float = 2.0
    update_apply_time: float = 0.5
    enable_bulletin: bool = True
    #: the protocol row's settings (MARP's ``itinerary``,
    #: ``read_strategy``, ``batch_size``, ``votes``; a baseline's quorums
    #: and timeouts): another row's setting is a ``TypeError``
    protocol_kwargs: Dict[str, Any] = field(default_factory=dict)
    # Hosts to leave out of a *second* audit computed at run time (the
    # availability experiment excludes permanently crashed replicas).
    # Part of the config so the excluded audit travels with the result
    # through process-pool workers and the result cache, neither of
    # which can carry the live deployment.
    audit_exclude: Tuple[str, ...] = ()
    # -- million-request data plane --------------------------------------
    #: Streaming accounting: terminal records sweep into constant-memory
    #: reservoirs (Welford/P²) and rolling chain digests instead of
    #: accumulating; RunResult.records comes back empty. Figure modules
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

    @property
    def commit_slots(self) -> Tuple[Tuple[str, int, int, str], ...]:
        """The audit's global commit map (empty for a streaming run)."""
        return self.audit.commit_slots

    def audit_excluding(self, exclude) -> AuditReport:
        """Re-audit without the named hosts (e.g. permanently crashed).

        Falls back to the precomputed ``audit_excluded`` report when the
        deployment was stripped (pool worker / cached result) and the
        exclusion matches ``config.audit_exclude``.
        """
        if self.deployment is None:
            if not set(exclude):
                return self.audit
            if (
                self.audit_excluded is not None
                and set(exclude) == set(self.config.audit_exclude)
            ):
                return self.audit_excluded
            raise ExperimentError("deployment not retained for this result")
        return audit(self.deployment, exclude=exclude)

    def without_deployment(self) -> "RunResult":
        """A copy safe to pickle across processes / cache on disk."""
        if self.deployment is None:
            return self
        return replace(self, deployment=None)

    @property
    def total_messages(self) -> int:
        return self.control_messages + self.agent_migrations

    @property
    def total_bytes(self) -> int:
        return self.control_bytes + self.agent_bytes


def _build_deployment(config: RunConfig) -> Deployment:
    latency = {
        "lan": lan_profile, "wan": wan_profile, "hybrid": hybrid_profile,
    }.get(config.latency)
    if latency is None:
        raise ExperimentError(f"unknown latency profile {config.latency!r}")
    replica_config = ReplicaConfig(
        agent_service_time=config.agent_service_time,
        update_apply_time=config.update_apply_time,
        enable_bulletin=config.enable_bulletin,
    )
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
    digests: Dict[str, ChainDigest] = {}
    if streaming:
        stream_metrics = StreamingMetrics()
        # Request ids come from a process-global counter; burn one to
        # learn the run's first id so the rolling digests fold
        # *run-relative* ids and stay process-independent (the same
        # normalisation result_payload applies to stored records).
        id_base = new_request_id() + 1
        for host in deployment.hosts:
            server = deployment.server(host)
            digest = ChainDigest(host, id_base=id_base)
            digests[host] = digest
            server.history.stream_to(digest)
            # The per-store applied log is the last O(requests) retainer
            # in streaming mode; no audit path reads it here.
            server.store.bound_applied_log()
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
            control_messages=stats.total_messages("control"),
            control_bytes=stats.total_bytes("control"),
            agent_migrations=stats.total_messages("agent"),
            agent_bytes=stats.total_bytes("agent"),
            dropped=stats.total_dropped(),
            audit=streaming_audit(deployment, digests),
            sim_time=deployment.env.now,
            deployment=deployment,
            audit_excluded=(
                streaming_audit(
                    deployment, digests, exclude=config.audit_exclude
                )
                if config.audit_exclude else None
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
    processes and hit the result cache when one is configured.
    """
    from repro.experiments.parallel import get_default_runner

    runner = runner if runner is not None else get_default_runner()
    return runner.run_repeats_many([config], repeats)[0]
