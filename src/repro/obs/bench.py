"""Perf trajectory: versioned benchmark baselines and regression gates.

``repro-marp bench`` runs four scenario suites — the DES kernel, the
parallel experiment engine, the live threaded runtime, and the
streaming scale data plane — and writes one
``BENCH_<suite>.json`` per suite (schema :data:`SCHEMA_VERSION`): a
throughput number, wall time, and a determinism fingerprint per
scenario, plus host metadata so a baseline records *where* it was
measured. ``repro-marp bench --compare OLD NEW`` diffs two such files
(or directories of them) and exits nonzero when any scenario's
throughput regressed by more than the threshold (default 10%) — the
regression gate CI runs against the committed baselines in
``benchmarks/baselines/``.

Throughput is taken as the **best of N repeats** (min wall time), the
standard defence against scheduler noise on shared runners; scenarios
that run a full simulation or a live cluster use a single repeat and a
larger workload instead. Fingerprints come from
:func:`repro.experiments.cache.result_fingerprint`, so a bench run
doubles as a byte-equivalence check: a fingerprint drift between
baselines means measured *results* changed, not just speed.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "SCHEMA_VERSION",
    "SUITES",
    "BenchError",
    "run_suite",
    "write_bench",
    "load_bench",
    "compare_docs",
    "compare_paths",
    "bench_filename",
]

SCHEMA_VERSION = "repro-bench/v1"

class BenchError(Exception):
    """Bench usage/format error → CLI exit 2 (not a regression)."""


# -- scenarios -------------------------------------------------------------

#: a scenario body does the work once and reports
#: ``(events, fingerprint, params)``; the harness times it.
ScenarioFn = Callable[[bool], Tuple[int, Optional[str], Dict[str, Any]]]


@dataclass(frozen=True)
class Scenario:
    name: str
    unit: str
    repeats: int
    fn: ScenarioFn


def _scn_event_loop(quick: bool):
    from repro.sim.core import Environment

    n = 5_000 if quick else 40_000
    env = Environment()

    def ticker(env):
        for _ in range(n):
            yield env.timeout(1)

    env.process(ticker(env))
    env.run()
    return max(env.events_processed, n), None, {"timeouts": n}


def _scn_decide(quick: bool):
    from repro.agents.identity import AgentId
    from repro.core.machines.priority import decide
    from repro.core.machines.table import LockingTable
    from repro.core.machines.wire import SharedView

    calls = 2_000 if quick else 20_000
    table = LockingTable()
    agents = [AgentId("h", float(n), 0) for n in range(20)]
    for index in range(5):
        table.update(SharedView(
            host=f"s{index + 1}",
            as_of=1.0,
            view=tuple(agents[index:] + agents[:index]),
            updated=frozenset(agents[:3]),
            versions={"x": index},
        ))
    for _ in range(calls):
        decide(table, 5, agents[5])
    return calls, None, {"calls": calls, "servers": 5}


def _scn_delta_merge(quick: bool):
    """The hundreds-of-replicas suitcase merge.

    Models one agent's table re-merging the bulletin across an
    N-replica tour: every round each host's view is presented again,
    but only a few hosts actually changed since the last round —
    unchanged hosts cost an O(1) sequence skip, changed ones an
    O(changed) delta application.
    """
    from repro.agents.identity import AgentId
    from repro.core.machines.delta import DeltaJournal
    from repro.core.machines.table import LockingTable
    from repro.core.machines.wire import SharedView

    n_hosts = 40 if quick else 200
    rounds = 10 if quick else 60
    queue_len, ual_len, n_keys, churn = 30, 50, 64, 4
    ids = [AgentId("h", float(n), 0) for n in range(queue_len + ual_len)]

    hosts: Dict[str, Dict[str, Any]] = {}
    for index in range(n_hosts):
        host = f"s{index + 1}"
        hosts[host] = {
            "queue": list(ids[:queue_len]),
            "updated": set(ids[queue_len:]),
            "versions": {f"k{k}": 1 for k in range(n_keys)},
            "journal": DeltaJournal(host),
        }

    table = LockingTable()
    views = {
        host: SharedView(
            host=host, as_of=1.0, view=tuple(s["queue"]),
            updated=frozenset(s["updated"]), versions=dict(s["versions"]),
            seq=s["journal"].seq,
        )
        for host, s in hosts.items()
    }
    for view in views.values():
        table.update(view)

    merges = 0
    now = 1.0
    for rnd in range(rounds):
        now += 1.0
        changed = {f"s{(rnd * churn + i) % n_hosts + 1}"
                   for i in range(churn)}
        for host in changed:
            s = hosts[host]
            journal = s["journal"]
            moved = s["queue"].pop(0)  # a requeue: head to tail
            s["queue"].append(moved)
            journal.bump("deq", moved)
            journal.bump("enq", moved)
            key = f"k{(rnd + len(host)) % n_keys}"
            s["versions"][key] += 1
            journal.bump("ver", (key, s["versions"][key]))
        for host, view in views.items():
            if host in changed:
                table.apply_delta(hosts[host]["journal"].delta_since(
                    table.acked_seq(host), now))
            else:
                table.update(view)  # the repeat merge
            merges += 1

    suitcase_bytes = table.wire_size()
    fingerprint = hashlib.sha256(json.dumps(
        [merges, suitcase_bytes],
    ).encode()).hexdigest()[:16]
    return merges, fingerprint, {
        "hosts": n_hosts,
        "rounds": rounds,
        "suitcase_bytes": suitcase_bytes,
    }


def _scn_des(name: str, gap: float) -> ScenarioFn:
    def fn(quick: bool):
        from repro import obs as obs_mod
        from repro.experiments.cache import result_fingerprint
        from repro.experiments.runner import RunConfig, run_once

        config = RunConfig(
            protocol="marp",
            n_replicas=3,
            mean_interarrival=gap,
            requests_per_client=4 if quick else 12,
            seed=3,
        )
        # A private hub (installed process-wide for the duration) counts
        # simulation events, so "events/s" means DES events, not runs.
        previous = obs_mod.get_hub()
        hub = obs_mod.ObservabilityHub()
        obs_mod.set_hub(hub)
        try:
            result = run_once(config)
        finally:
            obs_mod.set_hub(previous)
        events = int(hub.registry.get("sim_events_total").total())
        return events, result_fingerprint(result), {
            "mean_interarrival": gap,
            "requests": config.requests_per_client * config.n_replicas,
            "committed": result.committed,
        }

    fn.__name__ = name
    return fn


def _scn_sweep(jobs: int) -> ScenarioFn:
    def fn(quick: bool):
        from repro.experiments.cache import result_fingerprint
        from repro.experiments.parallel import ParallelRunner
        from repro.experiments.runner import RunConfig, repeat_configs

        gaps = (30.0, 80.0) if quick else (20.0, 35.0, 50.0, 80.0)
        configs = [
            child
            for gap in gaps
            for child in repeat_configs(
                RunConfig(
                    n_replicas=3,
                    mean_interarrival=gap,
                    requests_per_client=4 if quick else 6,
                    seed=11,
                ),
                2,
            )
        ]
        with ParallelRunner(jobs=jobs) as runner:
            results = runner.run_many(configs)
        joined = "".join(result_fingerprint(r) for r in results)
        digest = hashlib.sha256(joined.encode("ascii")).hexdigest()[:16]
        return len(configs), digest, {"runs": len(configs), "jobs": jobs}

    fn.__name__ = f"sweep_j{jobs}"
    return fn


def _scn_live(quick: bool):
    from repro.runtime import LiveCluster

    writes = 6 if quick else 15
    with LiveCluster(n_replicas=3, backend="thread", seed=7) as cluster:
        for index in range(writes):
            cluster.submit_write(
                cluster.hosts[index % len(cluster.hosts)], "x", index
            )
        records = cluster.wait_for(writes, timeout=120.0)
    audit = cluster.audit()
    committed = sum(1 for r in records if r["status"] == "committed")
    if not audit.consistent:
        raise BenchError("live bench run was inconsistent")
    # Wall-clock throughput only: the live backend is scheduler-bound,
    # so no determinism fingerprint is recorded.
    return committed, None, {
        "writes": writes, "committed": committed,
        "consistent": audit.consistent,
    }


#: Child body for the scale scenarios. Run in a fresh interpreter so
#: ``ru_maxrss`` measures *this run's* peak RSS, not whatever the bench
#: process allocated before (a parent-side reading could only ever grow
#: across scenarios). The child prints a single JSON document; events
#: are DES events from a private ObservabilityHub, the fingerprint is
#: the standard result fingerprint (streaming fingerprints are
#: process-independent, so parent and child agree).
_SCALE_CHILD = """\
import json
import resource
import sys

from repro import obs as obs_mod
from repro.experiments.cache import result_fingerprint
from repro.experiments.runner import run_once
from repro.experiments.scale import ScaleVariant, scale_config

protocol, requests, gap = sys.argv[1], int(sys.argv[2]), float(sys.argv[3])
n_replicas = int(sys.argv[4])
config = scale_config(
    protocol,
    ScaleVariant(label="bench", n_replicas=n_replicas, n_keys=256,
                 key_skew=0.99),
    gap,
    requests,
    seed=3,
)
hub = obs_mod.ObservabilityHub()
obs_mod.set_hub(hub)
result = run_once(config)
print(json.dumps({
    "events": int(hub.registry.get("sim_events_total").total()),
    "fingerprint": result_fingerprint(result),
    "committed": result.committed,
    "consistent": result.audit.consistent,
    "peak_rss_mb": round(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1
    ),
}))
"""


def _scn_scale(name: str, protocol: str, quick_requests: int,
               full_requests: int, gap: float = 100.0,
               n_replicas: int = 5) -> ScenarioFn:
    """A streaming Zipf scale scenario (canonical ``scale_config``:
    256 keys, skew 0.99, vectorized workload, hygiene windows),
    isolated in a subprocess for a clean peak-RSS reading."""

    def fn(quick: bool):
        import subprocess
        import sys

        requests = quick_requests if quick else full_requests
        proc = subprocess.run(
            [sys.executable, "-c", _SCALE_CHILD,
             protocol, str(requests), str(gap), str(n_replicas)],
            capture_output=True, text=True,
        )
        if proc.returncode != 0:
            raise BenchError(
                f"scale child failed ({proc.returncode}): "
                f"{proc.stderr.strip()[-500:]}"
            )
        doc = json.loads(proc.stdout.strip().splitlines()[-1])
        if not doc["consistent"]:
            raise BenchError(f"scale bench run {name!r} was inconsistent")
        return doc["events"], doc["fingerprint"], {
            "protocol": protocol,
            "requests": requests * n_replicas,  # one client per replica
            "mean_interarrival": gap,
            "n_replicas": n_replicas,
            "committed": doc["committed"],
            "peak_rss_mb": doc["peak_rss_mb"],
        }

    fn.__name__ = name
    return fn


SUITES: Dict[str, Sequence[Scenario]] = {
    "kernel": (
        Scenario("event_loop", "events/s", repeats=3, fn=_scn_event_loop),
        Scenario("decide", "calls/s", repeats=3, fn=_scn_decide),
        Scenario("des_contended", "events/s", repeats=2,
                 fn=_scn_des("des_contended", 25.0)),
        Scenario("des_uncontended", "events/s", repeats=2,
                 fn=_scn_des("des_uncontended", 200.0)),
        Scenario("delta_merge_delta", "merges/s", repeats=3,
                 fn=_scn_delta_merge),
    ),
    "parallel": (
        Scenario("sweep_serial", "runs/s", repeats=1, fn=_scn_sweep(1)),
        Scenario("sweep_j2", "runs/s", repeats=1, fn=_scn_sweep(2)),
    ),
    "live": (
        Scenario("live_thread_contended", "updates/s", repeats=1,
                 fn=_scn_live),
    ),
    # The streaming data plane at scale: a contended MARP run and the
    # bulk single-writer plane. Quick sizes gate CI; full sizes are the
    # local acceptance workload — scale_stream_bulk at full size IS the
    # million-request Zipf scenario (5 clients x 200k requests).
    "scale": (
        Scenario("scale_marp_contended", "events/s", repeats=1,
                 fn=_scn_scale("scale_marp_contended", "marp", 40, 300)),
        Scenario("scale_stream_bulk", "events/s", repeats=1,
                 fn=_scn_scale("scale_stream_bulk", "primary-copy",
                               1_000, 200_000)),
        # The hundreds-of-replicas tour: 150 replicas, one client
        # each, every agent touring all of them.
        Scenario("scale_delta_n150", "events/s", repeats=1,
                 fn=_scn_scale("scale_delta_n150", "marp", 1, 2,
                               gap=500.0, n_replicas=150)),
    ),
}


# -- running ---------------------------------------------------------------

def _host_meta() -> Dict[str, Any]:
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        cpus = os.cpu_count() or 1
    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "cpus": cpus,
    }


def run_suite(suite: str, quick: bool = False) -> Dict[str, Any]:
    """Run one suite; returns the schema-versioned result document."""
    if suite not in SUITES:
        raise BenchError(
            f"unknown bench suite {suite!r} (have: {sorted(SUITES)})"
        )
    scenarios: List[Dict[str, Any]] = []
    for scenario in SUITES[suite]:
        best_wall = None
        events = 0
        fingerprint: Optional[str] = None
        params: Dict[str, Any] = {}
        fingerprints = set()
        for _ in range(scenario.repeats):
            start = time.perf_counter()
            events, fingerprint, params = scenario.fn(quick)
            wall = time.perf_counter() - start
            fingerprints.add(fingerprint)
            if best_wall is None or wall < best_wall:
                best_wall = wall
        if len(fingerprints) > 1:
            raise BenchError(
                f"scenario {scenario.name!r} is non-deterministic across "
                f"repeats: {sorted(map(str, fingerprints))}"
            )
        scenarios.append({
            "name": scenario.name,
            "unit": scenario.unit,
            "repeats": scenario.repeats,
            "events": events,
            "wall_s": round(best_wall, 6),
            "rate": round(events / best_wall, 3) if best_wall else 0.0,
            "fingerprint": fingerprint,
            "params": params,
        })
    return {
        "schema": SCHEMA_VERSION,
        "suite": suite,
        "quick": quick,
        "created_unix": round(time.time(), 3),
        "host": _host_meta(),
        "scenarios": scenarios,
    }


def bench_filename(suite: str) -> str:
    """The canonical output name for a suite (``BENCH_<suite>.json``)."""
    return f"BENCH_{suite}.json"


def write_bench(doc: Dict[str, Any], out_dir: str = ".") -> str:
    """Write one suite document; returns the path."""
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, bench_filename(doc["suite"]))
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def load_bench(path: str) -> Dict[str, Any]:
    """Read + schema-validate one BENCH_*.json document."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read bench file {path!r}: {exc}")
    if doc.get("schema") != SCHEMA_VERSION:
        raise BenchError(
            f"{path}: schema {doc.get('schema')!r} != {SCHEMA_VERSION!r}"
        )
    return doc


# -- comparison ------------------------------------------------------------

@dataclass
class Comparison:
    """The outcome of diffing two bench documents."""

    lines: List[str]
    regressions: List[str]
    warnings: List[str]

    @property
    def ok(self) -> bool:
        return not self.regressions


def compare_docs(old: Dict[str, Any], new: Dict[str, Any],
                 threshold: float = 0.10) -> Comparison:
    """Diff two suite documents scenario-by-scenario.

    A scenario regresses when ``new_rate < old_rate * (1 - threshold)``.
    Fingerprint drift and scenario-set drift are *warnings* — they flag
    changed results or coverage, which the perf gate should surface but
    not conflate with a slowdown.
    """
    lines: List[str] = []
    regressions: List[str] = []
    warnings: List[str] = []
    suite = new.get("suite", "?")
    by_name = {s["name"]: s for s in old.get("scenarios", ())}
    seen = set()
    for scenario in new.get("scenarios", ()):
        name = scenario["name"]
        seen.add(name)
        base = by_name.get(name)
        label = f"{suite}/{name}"
        if base is None:
            warnings.append(f"{label}: no baseline scenario")
            continue
        old_rate, new_rate = base["rate"], scenario["rate"]
        delta = (new_rate - old_rate) / old_rate if old_rate else 0.0
        verdict = "ok"
        if old_rate and new_rate < old_rate * (1.0 - threshold):
            verdict = "REGRESSION"
            regressions.append(
                f"{label}: {old_rate:g} -> {new_rate:g} {scenario['unit']} "
                f"({delta:+.1%}, threshold -{threshold:.0%})"
            )
        lines.append(
            f"{label:32s} {old_rate:12g} -> {new_rate:12g} "
            f"{scenario['unit']:10s} {delta:+7.1%}  {verdict}"
        )
        if base.get("fingerprint") != scenario.get("fingerprint"):
            warnings.append(
                f"{label}: fingerprint drift "
                f"{base.get('fingerprint')} -> {scenario.get('fingerprint')}"
            )
    for name in sorted(set(by_name) - seen):
        warnings.append(f"{suite}/{name}: scenario missing from new run")
    return Comparison(lines=lines, regressions=regressions,
                      warnings=warnings)


def _doc_paths(path: str) -> List[str]:
    """A bench file, or every ``BENCH_*.json`` inside a directory."""
    if os.path.isdir(path):
        names = sorted(
            name for name in os.listdir(path)
            if name.startswith("BENCH_") and name.endswith(".json")
        )
        if not names:
            raise BenchError(f"no BENCH_*.json files in directory {path!r}")
        return [os.path.join(path, name) for name in names]
    return [path]


def compare_paths(old_path: str, new_path: str,
                  threshold: float = 0.10) -> Comparison:
    """Compare two bench files, or two directories of them, by suite."""
    old_docs = {d["suite"]: d for d in map(load_bench, _doc_paths(old_path))}
    new_docs = {d["suite"]: d for d in map(load_bench, _doc_paths(new_path))}
    merged = Comparison(lines=[], regressions=[], warnings=[])
    for suite in sorted(new_docs):
        old_doc = old_docs.get(suite)
        if old_doc is None:
            merged.warnings.append(f"{suite}: no baseline file")
            continue
        result = compare_docs(old_doc, new_docs[suite], threshold=threshold)
        merged.lines.extend(result.lines)
        merged.regressions.extend(result.regressions)
        merged.warnings.extend(result.warnings)
    for suite in sorted(set(old_docs) - set(new_docs)):
        merged.warnings.append(f"{suite}: suite missing from new run")
    return merged
