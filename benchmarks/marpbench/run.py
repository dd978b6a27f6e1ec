#!/usr/bin/env python3
"""marpbench: six named workloads, end-to-end and per-layer metrics.

Three ways in (see README.md):

* ``run.py --workload W --seed N --seconds S --trace 0|1`` — one workload;
  the last line of stdout is one JSON object (the contract in
  ``BENCHMARK.json``). ``--trace 0`` gives the end-to-end metrics from
  untraced passes, ``--trace 1`` the per-layer metrics from one untraced
  and one traced pass plus the micro-benchmarks.
* ``run.py --seed N [--out DOC.json]`` — all six workloads, one table.
* ``run.py --compare A.json B.json`` — two such documents against the
  regression bounds.

Every pass runs in a fresh child interpreter (``--child``), one at a
time, so ``peak_rss_mb`` and ``setup_s`` belong to that pass alone.
"""

import time

_T0 = time.perf_counter()  # a child's set-up time is counted from here

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from typing import Any, Dict, List, Optional, Sequence  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(REPO_ROOT, "src")
for _path in (SRC, HERE):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from compare import END_TO_END, compare_documents, summarize  # noqa: E402
from layers import LAYERS  # noqa: E402
from micro import MICROS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SCHEMA = "marpbench/v1"
#: A child that has not answered by then is killed (contract: 180 s a run).
CHILD_TIMEOUT_S = 170.0
#: setup_s is a median over at least this many children.
MIN_SETUP_SAMPLES = 3

#: The end-to-end metrics the BENCHMARK.json contract carries. The other
#: two of compare.END_TO_END read 0 or nothing on some workload
#: (``failed_share`` everywhere, ``alt_ms_mean`` on primary-copy), which the
#: contract does not allow: ``failed_share`` is reported with the layers and
#: ``alt_ms_mean`` only in the all-workloads document.
CONTRACT_END_TO_END = ("ops_per_s", "att_ms_p50", "att_ms_tail", "peak_rss_mb", "setup_s")


class BenchFailure(Exception):
    """A pass failed a correctness gate or a child died: no metrics."""


# -- children ----------------------------------------------------------------


def _child_main(args: argparse.Namespace) -> int:
    from workloads import run_pass, run_setup_only

    if args.child == "setup":
        result = run_setup_only(args.workload, args.seed, _T0)
    elif args.child == "micro":
        from micro import run_micros

        result = run_micros()
    else:
        result = run_pass(
            args.workload, args.seed, args.scale, _T0, traced=args.child == "traced"
        )
    print(json.dumps(result))
    return 0


def _spawn(
    kind: str, workload: Optional[str], seed: int, scale: float = 1.0
) -> Dict[str, Any]:
    """Run one child to completion and parse the JSON on its last line."""
    command = [
        sys.executable, os.path.join(HERE, "run.py"), "--child", kind,
        "--seed", str(seed), "--scale", repr(scale),
    ]
    if workload is not None:
        command += ["--workload", workload]
    workload = workload or kind
    try:
        done = subprocess.run(
            command, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired as late:
        raise BenchFailure(f"{workload}: {kind} child exceeded {late.timeout}s") from late
    if done.returncode != 0:
        raise BenchFailure(
            f"{workload}: {kind} child exited {done.returncode}\n{done.stderr[-2000:]}"
        )
    return json.loads(done.stdout.strip().splitlines()[-1])


def pass_seed(seed: int, index: int) -> int:
    """The seed of pass ``index`` of a run: every pass has inputs of its own.

    Cost and latency of these workloads depend on the draw (a contended
    p99 moves by a tenth between seeds), so a run reports the median over
    several draws, all fixed by ``--seed``.
    """
    return seed * 1000 + index


def _gate(workload: str, passes: Sequence[Dict[str, Any]], same_inputs: bool = False) -> None:
    """The correctness gate: any problem in any pass fails the workload.

    ``same_inputs`` says the passes ran the same seed, so their simulated
    results must be bit-identical (``None`` on the live backend).
    """
    problems = [p for one in passes for p in one["problems"]]
    fingerprints = {one["sim_fingerprint"] for one in passes}
    if same_inputs and len(fingerprints) > 1:
        problems.append(f"sim_fingerprint differs between passes: {sorted(fingerprints)}")
    if problems:
        raise BenchFailure(f"{workload}: " + "; ".join(problems))


# -- one workload --------------------------------------------------------------


def measure_end_to_end(name: str, seed: int, repeats: int) -> Dict[str, Any]:
    """``repeats`` untraced passes of one workload, one sub-seed each.

    ``setup_s`` is the median over every child of the run; set-up-only
    children run first to bring that sample to :data:`MIN_SETUP_SAMPLES`.
    The first child of a fresh checkout also compiles the bytecode, which
    the median absorbs.
    """
    setups = [
        _spawn("setup", name, seed)["setup_s"]
        for _ in range(MIN_SETUP_SAMPLES - repeats)
    ]
    passes = [_spawn("pass", name, pass_seed(seed, index)) for index in range(repeats)]
    _gate(name, passes)
    setups.extend(one["setup_s"] for one in passes)

    first = passes[0]
    done = [one["attempted"] - one["failed"] - one["open"] for one in passes]
    values = {
        "ops_per_s": [ops / one["wall_s"] for ops, one in zip(done, passes)],
        "att_ms_p50": [one["att_ms_p50"] for one in passes],
        "att_ms_tail": [one["att_ms_tail"] for one in passes],
        "peak_rss_mb": [one["peak_rss_mb"] for one in passes],
        "setup_s": setups,
    }
    if first["alt_ms_mean"] is not None:
        values["alt_ms_mean"] = [one["alt_ms_mean"] for one in passes]
    values["failed_share"] = [
        (one["failed"] + one["open"]) / one["attempted"] for one in passes
    ]
    live = WORKLOADS[name].backend == "live"
    return {
        "attempted": sum(one["attempted"] for one in passes),
        "failed": sum(one["failed"] + one["open"] for one in passes),
        "tail_percentile": first["tail_percentile"],
        "sim_fingerprint": None if live else hashlib.sha256(
            "".join(one["sim_fingerprint"] for one in passes).encode("ascii")
        ).hexdigest()[:16],
        "end_to_end": {
            metric: summarize(metric, samples, live=live)
            for metric, samples in values.items()
        },
        "passes": passes,
    }


def measure_layers(
    name: str, seed: int, untraced: Optional[Dict[str, Any]] = None
) -> Dict[str, Any]:
    """The per-layer metrics of one workload, micros apart.

    One untraced pass gives the exact counts and the wall the traced pass
    is compared with; the traced pass of the same inputs (cProfile + a
    private hub) gives self time per layer and the protocol counters, and
    must reproduce the untraced pass's simulated results bit for bit.
    """
    untraced = untraced or _spawn("pass", name, pass_seed(seed, 0))
    traced = _spawn("traced", name, pass_seed(seed, 0))
    _gate(name, [untraced, traced], same_inputs=True)

    commits = max(1, untraced["committed"])
    hub = traced["hub"]
    metrics: Dict[str, Any] = {
        "failed_share": (untraced["failed"] + untraced["open"]) / untraced["attempted"],
        "att_tail_percentile": untraced["tail_percentile"],
        "net.msgs_per_commit": untraced["messages"] / commits,
        "net.wire_kb_per_commit": untraced["wire_bytes"] / 1024.0 / commits,
        "net.dropped": untraced["dropped"],
        "net.expired": hub["net_expired"],
        "des_driver.migrations_per_commit": untraced["migrations"] / commits,
        "des_driver.parks_per_commit": hub["parks"] / commits,
        "des_driver.claim_win_ratio": hub["claims_won"] / hub["claims"] if hub["claims"] else 0.0,
        "machines.grant_ratio": hub["grants_ack"] / hub["grants"] if hub["grants"] else 0.0,
        "sim.events": hub["sim_events"],
        "sim.events_per_commit": hub["sim_events"] / commits,
        "sim.events_per_s": hub["sim_events"] / untraced["wall_s"],
        "trace.overhead_ratio": traced["wall_s"] / untraced["wall_s"],
    }
    metrics.update(traced["layers"])
    return {
        "attempted": untraced["attempted"] + traced["attempted"],
        "failed": sum(one["failed"] + one["open"] for one in (untraced, traced)),
        "per_layer": metrics,
        "spans": {"untraced": [untraced["spans"]], "traced": [traced["spans"]]},
    }


def measure_micros(seed: int) -> Dict[str, Dict[str, Any]]:
    """The micro-benchmarks, which no workload's inputs reach."""
    return _spawn("micro", None, seed)


def per_layer_units() -> Dict[str, str]:
    """Unit of every per-layer metric, in report order."""
    units = {
        "failed_share": "share", "att_tail_percentile": "%",
        "net.msgs_per_commit": "count", "net.wire_kb_per_commit": "KB",
        "net.dropped": "count", "net.expired": "count",
        "des_driver.migrations_per_commit": "count",
        "des_driver.parks_per_commit": "count",
        "des_driver.claim_win_ratio": "ratio", "machines.grant_ratio": "ratio",
        "sim.events": "count", "sim.events_per_commit": "count",
        "sim.events_per_s": "1/s", "trace.overhead_ratio": "ratio",
        "trace.self_total_s": "s",
    }
    for layer in LAYERS:
        units[f"{layer}.self_share"] = "share"
        units[f"{layer}.calls"] = "count"
    units["trace.unmapped_share"] = "share"
    units.update({name: unit for name, (unit, _fn, _n) in MICROS.items()})
    return units


# -- entry points ----------------------------------------------------------------


def run_one(args: argparse.Namespace) -> int:
    """The BENCHMARK.json contract: one workload, one JSON line last."""
    workload = WORKLOADS[args.workload]
    if args.trace:
        measured = measure_layers(workload.name, args.seed)
        values = dict(measured["per_layer"])
        for name, row in measure_micros(args.seed).items():
            # The contract wants a number for every name: a micro whose
            # symbol is gone reads 0 here and says why on stderr.
            values[name] = row["value"] if row["value"] is not None else 0.0
            if row["value"] is None:
                print(f"{name}: unavailable ({row['reason']})", file=sys.stderr)
        metrics = {
            name: {"value": values[name], "unit": unit}
            for name, unit in per_layer_units().items()
        }
        spans = measured["spans"]
    else:
        repeats = args.repeats or workload.passes_for(args.seconds)
        measured = measure_end_to_end(workload.name, args.seed, repeats)
        metrics = {
            name: {"value": measured["end_to_end"][name]["value"],
                   "unit": END_TO_END[name].unit}
            for name in CONTRACT_END_TO_END
        }
        spans = {"untraced": [one["spans"] for one in measured["passes"]]}
    _write_spans(args.trace_out, {workload.name: spans})
    # Reached only when every pass went through the correctness gate.
    print(json.dumps({
        "correct": True, "attempted": measured["attempted"],
        "failed": measured["failed"], "metrics": metrics,
    }))
    return 0


def run_all(args: argparse.Namespace) -> int:
    """All six workloads, one at a time; a table, and ``--out`` if asked."""
    names = list(WORKLOADS)
    document: Dict[str, Any] = {
        "schema": SCHEMA, "seed": args.seed, "host": host_info(), "workloads": {},
    }
    spans = {}
    failures = []
    units = per_layer_units()
    for name in names:
        workload = WORKLOADS[name]
        repeats = args.repeats or workload.passes_for(args.seconds)
        print(f"== {name} ({workload.backend}, {repeats} passes, seed {args.seed})")
        try:
            entry = measure_end_to_end(name, args.seed, repeats)
            passes = entry.pop("passes")
            spans[name] = {"untraced": [one["spans"] for one in passes]}
            layers = None
            if not args.no_trace:
                layers = measure_layers(name, args.seed, untraced=passes[0])
        except BenchFailure as failure:
            # No metrics for a workload that failed a gate; the others go on.
            print(f"  FAILED {failure}")
            failures.append(name)
            continue
        for metric, row in entry["end_to_end"].items():
            print(f"  {metric:<14} {row['value']:>14.4f} {row['unit']:<5} "
                  f"[{row['clock']} clock; median of {row['n']}, "
                  f"q1 {row['q1']:.4f} q3 {row['q3']:.4f}]")
        print(f"  tail is p{entry['tail_percentile']:g}; "
              f"sim_fingerprint {entry['sim_fingerprint']}")
        if layers is not None:
            entry["per_layer"] = layers["per_layer"]
            spans[name]["traced"] = layers["spans"]["traced"]
            for metric, value in layers["per_layer"].items():
                print(f"  {metric:<36} {value:>14.6g} {units[metric]}")
        document["workloads"][name] = entry
    if not args.no_trace:
        print("== micro (fixed work, median of 3, host clock)")
        document["micro"] = measure_micros(args.seed)
        for metric, row in document["micro"].items():
            shown = f"null ({row['reason']})" if row["value"] is None else f"{row['value']:.6g}"
            print(f"  {metric:<36} {shown:>14} {row['unit']}")
    _write_spans(args.trace_out, spans)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(document, handle, indent=1, sort_keys=True)
        print(f"[marpbench] document -> {args.out}")
    if failures:
        print("marpbench: FAILED " + ", ".join(failures), file=sys.stderr)
        return 1
    return 0


def host_info() -> Dict[str, Any]:
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
    }


def _write_spans(path: Optional[str], spans: Dict[str, Any]) -> None:
    if path:
        with open(path, "w") as handle:
            json.dump(spans, handle, indent=1)
        print(f"[marpbench] spans -> {path}", file=sys.stderr)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run one workload and print the contract's JSON line")
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="measured seconds per workload; sets the pass count")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: 0 end-to-end, 1 per-layer metrics")
    parser.add_argument("--repeats", type=int, default=0,
                        help="passes per workload (overrides --seconds)")
    parser.add_argument("--no-trace", action="store_true",
                        help="all-workloads run: skip the traced pass and the micros")
    parser.add_argument("--trace-out", help="write the recorded spans here (JSON)")
    parser.add_argument("--out", help="all-workloads run: write the document here")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"),
                        help="compare two documents; exit 1 on regression")
    parser.add_argument("--child", choices=("pass", "traced", "setup", "micro"),
                        help=argparse.SUPPRESS)
    parser.add_argument("--scale", type=float, default=1.0, help=argparse.SUPPRESS)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.compare:
        return compare_documents(*args.compare)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"marpbench: no program to measure: {SRC}/repro is missing",
              file=sys.stderr)
        return 2
    if args.child:
        return _child_main(args)
    try:
        return run_one(args) if args.workload else run_all(args)
    except BenchFailure as failure:
        print(f"marpbench: FAILED {failure}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
