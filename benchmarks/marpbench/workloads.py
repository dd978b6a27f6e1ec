"""The six marpbench workloads and the code that runs one pass of each.

A *pass* is one execution of a workload through the repository's public
entry points, in a fresh interpreter (``run.py --child``). Everything in
this module runs inside that child; the parent only reads
:data:`WORKLOADS` for names and pass counts. ``repro`` is therefore
imported inside the functions: the child's imports are part of the
``setup_s`` it reports, and the parent never pays for them.

Sizes are fixed constants, never scaled to the host: cost is
super-linear in run length on both backends (see README.md), so a
self-sizing workload would measure a different regime on a faster host.
``scale`` exists for the test-suite and the hub-overhead micro only.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import random
import resource
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "Workload",
    "WORKLOADS",
    "PLANE_FIELDS",
    "known_fields",
    "tail_percentile",
    "run_pass",
    "run_setup_only",
]

#: RunConfig/ScaleVariant fields that select an opt-in data plane. ROADMAP
#: items 2-3 retire them; each is passed only while it still exists.
PLANE_FIELDS = ("streaming", "delta_views", "workload_chunk", "ul_retention", "inbox_ttl")

#: Percentiles a tail may be reported at, highest first.
_TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def known_fields(cls, **values: Any) -> Dict[str, Any]:
    """``values`` minus any opt-in plane field ``cls`` no longer has.

    A field outside :data:`PLANE_FIELDS` is always passed through, so a
    renamed ``write_fraction`` fails loudly instead of silently running a
    different workload.
    """
    present = {f.name for f in dataclasses.fields(cls)}
    return {
        name: value
        for name, value in values.items()
        if name in present or name not in PLANE_FIELDS
    }


def tail_percentile(samples: int, available: Sequence[float] = _TAIL_LADDER) -> float:
    """The highest available percentile with at least ten samples beyond it."""
    for pct in sorted(available, reverse=True):
        if samples * (100.0 - pct) / 100.0 >= 10.0 - 1e-9:
            return pct
    return min(available)


@dataclass(frozen=True)
class Workload:
    """One named set of inputs."""

    name: str
    backend: str  # "des" | "live"
    why: str
    #: wall seconds of one pass on the 2-core reference host; ``--seconds``
    #: is turned into a pass count with it, so the count (and with it every
    #: simulated number) depends on the flags alone, never on host speed.
    nominal_pass_s: float
    #: does every attempted operation end as committed, failed or open?
    write_only: bool = True
    #: DES only: (seed, scale) -> RunConfig
    build: Optional[Callable[[int, float], Any]] = None

    def passes_for(self, seconds: float) -> int:
        return max(1, round(seconds / self.nominal_pass_s))


# -- DES configs -------------------------------------------------------------


def _scaled(count: int, scale: float) -> int:
    return max(1, round(count * scale))


def _des_config(
    protocol: str,
    seed: int,
    *,
    n_replicas: int,
    n_keys: int,
    key_skew: float,
    gap: float,
    requests: int,
    delta_views: bool = False,
    **overrides: Any,
):
    """``scale_config`` plus overrides, feature-detecting the plane fields."""
    from repro.experiments.runner import RunConfig
    from repro.experiments.scale import ScaleVariant, scale_config

    variant = ScaleVariant(**known_fields(
        ScaleVariant, label="marpbench", n_replicas=n_replicas, n_keys=n_keys,
        key_skew=key_skew, latency="lan", delta_views=delta_views,
    ))
    config = scale_config(protocol, variant, gap, requests, seed=seed)
    return dataclasses.replace(config, **known_fields(RunConfig, **overrides))


def _contended(seed: int, scale: float):
    return _des_config(
        "marp", seed, n_replicas=5, n_keys=16, key_skew=0.9, gap=60.0,
        requests=_scaled(120, scale), delta_views=True, streaming=False,
    )


def _lightmix(seed: int, scale: float):
    return _des_config(
        "marp", seed, n_replicas=5, n_keys=256, key_skew=0.0, gap=40.0,
        requests=_scaled(2400, scale), write_fraction=0.1,
    )


def _tour(seed: int, scale: float):
    return _des_config(
        "marp", seed, n_replicas=max(5, round(80 * scale)), n_keys=256,
        key_skew=0.9, gap=500.0, requests=1, delta_views=True, streaming=False,
    )


def _bulk_primary(seed: int, scale: float):
    return _des_config(
        "primary-copy", seed, n_replicas=5, n_keys=256, key_skew=0.99,
        gap=100.0, requests=_scaled(1600, scale),
    )


def _crash(seed: int, scale: float):
    from repro.net.faults import CrashSchedule, FaultPlan

    # 2 s is long enough for a migration to be retried three times and the
    # replica declared unavailable (~1.65 s), so the windows are not scaled.
    crashes = CrashSchedule()
    crashes.add("s2", 2000.0, 4000.0)
    crashes.add("s4", 6000.0, 8000.0)
    return _des_config(
        "marp", seed, n_replicas=5, n_keys=16, key_skew=0.9, gap=250.0,
        requests=_scaled(80, scale), delta_views=True, streaming=False,
        faults=FaultPlan(crashes=crashes),
    )


#: live_thread_n3 shape: writes, keys, requests in flight.
LIVE_WRITES, LIVE_KEYS, LIVE_IN_FLIGHT = 150, 4, 3

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "marp_contended_n5", "des",
            "N=5, 16 Zipf-0.9 keys at ~70% of the lock hand-off ceiling: parks, "
            "refresh tours and claim rounds, so machines + DES driver do the work",
            nominal_pass_s=3.3, build=_contended,
        ),
        Workload(
            "marp_lightmix_n5", "des",
            "N=5, 256 uniform keys, 10% writes, local reads: first-tour wins and "
            "the read path, so a gain bought for contention that taxes them shows",
            nominal_pass_s=5.0, write_only=False, build=_lightmix,
        ),
        Workload(
            "marp_tour_n80", "des",
            "N=80, one write per replica: 68 hops and ~1.6 MB of suitcase per "
            "commit, so LockingTable merge/delta and net size accounting dominate",
            nominal_pass_s=3.3, build=_tour,
        ),
        Workload(
            "bulk_primary_n5", "des",
            "primary-copy, N=5, 8000 writes: the MARP kernel is idle, so this is "
            "the bypass for kernel optimisations; sim, net, workload, analysis work",
            nominal_pass_s=4.2, build=_bulk_primary,
        ),
        Workload(
            "marp_crash_n5", "des",
            "N=5 at light load with s2 then s4 crashed for 2 s each, exact audit: "
            "the only workload that runs retry, unavailable and SYNC-recovery code",
            nominal_pass_s=2.5, build=_crash,
        ),
        Workload(
            "live_thread_n3", "live",
            "LiveCluster of 3 host threads, closed loop with 3 writes in flight: "
            "pickle shipping, transport and timers work on the host clock, sim idle",
            nominal_pass_s=3.3,
        ),
    )
}


# -- one pass ----------------------------------------------------------------


class Spans:
    """In-memory span log: (name, start, end, parent), seconds since ``t0``."""

    def __init__(self, t0: float) -> None:
        self._t0 = t0
        self.rows: List[Dict[str, Any]] = []

    def add(self, name: str, start: float, end: float, parent: Optional[str]) -> None:
        self.rows.append({
            "name": name, "start": start - self._t0, "end": end - self._t0,
            "parent": parent,
        })


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _fingerprint(result) -> str:
    """sha256 over every simulated number of a DES pass.

    Floats go in by ``repr`` so a change in the last bit moves it. A
    simulator-only speed-up must leave it unchanged.
    """
    fields = [
        result.committed, result.failed, result.open,
        repr(result.alt), repr(result.att),
        repr(result.att_p50), repr(result.att_p99),
        result.control_messages, result.agent_migrations,
        result.control_bytes, result.agent_bytes,
    ]
    return hashlib.sha256(json.dumps(fields).encode("ascii")).hexdigest()[:16]


def _conservation_problems(
    workload: Workload, attempted: int, committed: int, failed: int, still_open: int
) -> List[str]:
    accounted = committed + failed + still_open
    if workload.write_only and accounted != attempted:
        return [f"committed+failed+open = {accounted}, attempted = {attempted}"]
    if accounted > attempted or committed < 1:
        return [f"committed={committed} failed={failed} open={still_open} "
                f"of {attempted} attempted"]
    return []


def _des_latencies(result) -> Tuple[float, float, float]:
    """(p50, tail, tail percentile) of committed-write ATT, simulated ms.

    With full records the percentiles are exact and the tail follows the
    ten-samples-beyond rule; a streaming pass keeps no records, so only
    its P-squared p50/p99 estimates are available to that rule.
    """
    import numpy as np

    totals = [
        r.total_time for r in result.records
        if r.is_write and r.status == "committed" and r.total_time is not None
    ]
    if totals:
        pct = tail_percentile(len(totals))
        p50, tail = np.percentile(totals, [50.0, pct])
        return float(p50), float(tail), pct
    pct = tail_percentile(result.committed, available=(99.0, 50.0))
    return result.att_p50, (result.att_p99 if pct == 99.0 else result.att_p50), pct


def _run_des(workload: Workload, seed: int, scale: float, t0: float, spans: Spans,
             wrap: Callable[[Callable[[], Any]], Any]) -> Dict[str, Any]:
    from repro.experiments.runner import run_once

    config = workload.build(seed, scale)
    attempted = config.n_replicas * config.requests_per_client
    started = time.perf_counter()
    spans.add("setup", t0, started, "pass")
    result = wrap(lambda: run_once(config))
    finished = time.perf_counter()
    spans.add("entry_point", started, finished, "pass")

    problems = _conservation_problems(
        workload, attempted, result.committed, result.failed, result.open
    )
    if not result.audit.consistent:
        problems.append("audit reports the replicas inconsistent")
    p50, tail, pct = _des_latencies(result)
    spans.add("checks", finished, time.perf_counter(), "pass")
    return {
        "attempted": attempted,
        "committed": result.committed,
        "failed": result.failed,
        "open": result.open,
        "wall_s": finished - started,
        "setup_s": started - t0,
        "att_ms_p50": p50,
        "att_ms_tail": tail,
        "tail_percentile": pct,
        # NaN where the protocol takes no lock (primary-copy).
        "alt_ms_mean": None if math.isnan(result.alt) else result.alt,
        "problems": problems,
        "sim_fingerprint": _fingerprint(result),
        "messages": result.total_messages,
        "migrations": result.agent_migrations,
        "wire_bytes": result.total_bytes,
        "dropped": result.dropped,
    }


def _run_live(workload: Workload, seed: int, scale: float, t0: float, spans: Spans,
              wrap: Callable[[Callable[[], Any]], Any]) -> Dict[str, Any]:
    """Closed loop, ``LIVE_IN_FLIGHT`` writes outstanding, one generator thread.

    The generator is this thread: with three host threads on two cores, a
    ``LiveWorkloadDriver`` thread per host would compete with the system
    under test. Latency is taken here, submit to record seen, so it
    includes the queueing a client would see.
    """
    import numpy as np

    from repro.runtime import LiveCluster

    writes = _scaled(LIVE_WRITES, scale)
    keys = [f"k{i}" for i in range(LIVE_KEYS)]
    rng = random.Random(seed)
    plan = [rng.choice(keys) for _ in range(writes)]

    def drive():
        # The cluster is built inside the traced region so a traced pass
        # resolves the private hub; starting it is still set-up time.
        cluster = LiveCluster(n_replicas=3, backend="thread", seed=seed).start()
        started = time.perf_counter()
        submitted: Dict[int, float] = {}
        seen: Dict[int, float] = {}
        try:
            def submit() -> None:
                index = len(submitted)
                home = cluster.hosts[index % len(cluster.hosts)]
                request_id = cluster.submit_write(home, plan[index], index)
                submitted[request_id] = time.perf_counter()

            for _ in range(min(LIVE_IN_FLIGHT, writes)):
                submit()
            while len(seen) < writes:
                cluster.wait_for(len(seen) + 1, timeout=60.0)
                now = time.perf_counter()
                for request_id in cluster.records.keys() - seen.keys():
                    seen[request_id] = now
                    if len(submitted) < writes:
                        submit()
        finally:
            cluster.shutdown()
        audit = cluster.audit()
        return cluster, audit, started, time.perf_counter(), submitted, seen

    cluster, audit, started, finished, submitted, seen = wrap(drive)
    spans.add("setup", t0, started, "pass")
    spans.add("entry_point", started, finished, "pass")

    records = list(cluster.records.values())
    committed = [r for r in records if r["status"] == "committed"]
    failed = sum(1 for r in records if r["status"] == "failed")
    still_open = writes - len(records)
    problems = _conservation_problems(workload, writes, len(committed), failed, still_open)
    if not audit.consistent:
        problems.extend(audit.problems or ["live audit reports inconsistency"])
    if audit.total_commits != len(committed):
        problems.append(
            f"{audit.total_commits} commits in host histories, {len(committed)} records"
        )
    totals = [
        (seen[r["request_id"]] - submitted[r["request_id"]]) * 1000.0 for r in committed
    ]
    pct = tail_percentile(len(totals))
    p50, tail = np.percentile(totals, [50.0, pct]) if totals else (math.nan, math.nan)
    lock_times = [
        r["lock_acquired_at"] - r["dispatched_at"] for r in committed
        if r["lock_acquired_at"] is not None and r["dispatched_at"] is not None
    ]
    spans.add("checks", finished, time.perf_counter(), "pass")
    return {
        "attempted": writes,
        "committed": len(committed),
        "failed": failed,
        "open": still_open,
        "wall_s": finished - started,
        "setup_s": started - t0,
        "att_ms_p50": float(p50),
        "att_ms_tail": float(tail),
        "tail_percentile": pct,
        "alt_ms_mean": sum(lock_times) / len(lock_times) if lock_times else None,
        "problems": problems,
        "sim_fingerprint": None,
        # The live transport keeps no message or byte totals.
        "messages": 0, "migrations": 0, "wire_bytes": 0, "dropped": 0,
    }


def run_pass(name: str, seed: int, scale: float, t0: float, traced: bool) -> Dict[str, Any]:
    """Run one pass; ``t0`` is the child's first ``perf_counter`` reading.

    A traced pass wraps the entry-point call in ``cProfile`` with a
    private ``ObservabilityHub`` installed process-wide, and adds the
    folded profile and the hub's counters to the result.
    """
    workload = WORKLOADS[name]
    spans = Spans(t0)
    trace: Dict[str, Any] = {}

    def untraced(call):
        return call()

    def with_trace(call):
        import repro
        from repro import obs

        from layers import ThreadedProfile, fold_profile, hub_counts

        hub = obs.ObservabilityHub()
        previous = obs.get_hub()
        obs.set_hub(hub)
        try:
            with ThreadedProfile(cpu_clock=workload.backend == "live") as profile:
                value = call()
        finally:
            obs.set_hub(previous)
        package_root = repro.__path__[0]
        trace["layers"] = fold_profile(profile.stats, package_root)
        trace["hub"] = hub_counts(hub)
        return value

    runner = _run_live if workload.backend == "live" else _run_des
    result = runner(workload, seed, scale, t0, spans, with_trace if traced else untraced)
    spans.add("pass", t0, time.perf_counter(), None)
    result.update(
        workload=name, seed=seed, scale=scale, traced=traced,
        peak_rss_mb=_peak_rss_mb(), spans=spans.rows, **trace,
    )
    return result


def run_setup_only(name: str, seed: int, t0: float) -> Dict[str, Any]:
    """Everything a pass does before its first entry-point call, then stop."""
    workload = WORKLOADS[name]
    if workload.backend == "live":
        from repro.runtime import LiveCluster

        cluster = LiveCluster(n_replicas=3, backend="thread", seed=seed).start()
        setup_s = time.perf_counter() - t0
        cluster.shutdown()
    else:
        from repro.experiments.runner import run_once  # noqa: F401  (import is the cost)

        workload.build(seed, 1.0)
        setup_s = time.perf_counter() - t0
    return {"workload": name, "setup_s": setup_s}
