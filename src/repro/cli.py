"""Command-line entry point: check the paper's claims, run the rest.

Usage::

    python -m repro claims               # every claim: tables + verdicts
    python -m repro claims --quick T1 F1 # some claims, small settings
    python -m repro claims --format json # one JSON document (or csv)
    python -m repro scale --scale-out curves.json   # X2's curves
    python -m repro live                 # live threaded backend demo
    python -m repro obs                  # instrumented demo run + report
    python -m repro obs --self-check     # observability pipeline self-test
    python -m repro adversary --schedules 200 --seed 0   # fault campaign
    python -m repro adversary --seed 0 --index 46        # one schedule
    python -m repro adversary --replay failure.json      # replay a script

``claims`` prints each claim's table (:mod:`repro.experiments.claims`),
then a verdict table, and exits 1 when a verdict differs from the
row's expectation. ``--format csv|json`` renders the claims and the
scale family from the same rows.

Any command accepts ``--metrics-out FILE.jsonl`` /
``--trace-out FILE.jsonl`` to run it under a process-wide
observability hub and dump the telemetry as JSONL (metrics only /
spans+events only, respectively), with an end-of-run summary line.
``--trace-format chrome`` switches the trace dump to Chrome
``trace_event`` JSON, loadable directly in Perfetto.

``claims`` and ``scale`` also accept ``--jobs/-j N`` to fan their runs
out over N worker processes (bit-identical results, see
docs/experiments.md). Every number they print comes from a run made by
that invocation.

Installed as the ``repro-marp`` console script as well.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Tuple

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The repro-marp argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-marp",
        description=(
            "Reproduction harness for 'Achieving Replication Consistency "
            "Using Cooperating Mobile Agents' (Cao, Chan & Wu, ICPP 2001)."
        ),
    )
    parser.add_argument(
        "command",
        choices=["claims", "scale", "live", "obs", "adversary"],
        help="what to run",
    )
    parser.add_argument(
        "ids", nargs="*", metavar="ID",
        help="with the claims command: which claims (default: all)",
    )
    parser.add_argument(
        "--repeats", type=int, default=2,
        help="seeds per configuration (default 2)",
    )
    parser.add_argument(
        "--requests", type=int, default=20,
        help="requests per client (default 20)",
    )
    parser.add_argument("--seed", type=int, default=0, help="base seed")
    parser.add_argument(
        "--jobs", "-j", type=int, default=1, metavar="N",
        help=(
            "fan runs out over N worker processes (default 1: serial); "
            "results are bit-identical to the serial path"
        ),
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="small fast settings (single repeat, fewer points)",
    )
    parser.add_argument(
        "--format", choices=["text", "csv", "json"], default="text",
        help="output format of the claims and scale tables",
    )
    parser.add_argument(
        "--metrics-out", metavar="FILE.jsonl", default=None,
        help="run under an observability hub; dump metrics as JSONL",
    )
    parser.add_argument(
        "--trace-out", metavar="FILE.jsonl", default=None,
        help="run under an observability hub; dump spans/events as JSONL",
    )
    parser.add_argument(
        "--trace-format", choices=["jsonl", "chrome"], default="jsonl",
        help=(
            "format for --trace-out: jsonl records (default) or Chrome "
            "trace_event JSON for Perfetto/chrome://tracing"
        ),
    )
    parser.add_argument(
        "--self-check", action="store_true",
        help="with the obs command: run the observability self-test",
    )
    parser.add_argument(
        "--scale-out", metavar="FILE.json", default=None,
        help=(
            "with the scale command: also write the saturation curves "
            "as a JSON document (the CI scale-smoke artifact)"
        ),
    )
    parser.add_argument(
        "--schedules", type=int, default=200, metavar="N",
        help=(
            "with the adversary command: how many seeded schedules to "
            "generate and check (default 200)"
        ),
    )
    parser.add_argument(
        "--index", type=int, default=None, metavar="I",
        help=(
            "with the adversary command: check exactly campaign "
            "schedule I of --seed instead of a full campaign (this is "
            "the reproduction command a failing campaign prints)"
        ),
    )
    parser.add_argument(
        "--replay", metavar="FILE.json", default=None,
        help=(
            "with the adversary command: replay one schedule JSON "
            "(e.g. a saved failure or a corpus file) instead of "
            "generating schedules"
        ),
    )
    parser.add_argument(
        "--save-failures", metavar="DIR", default=None,
        help=(
            "with the adversary command: write every failing "
            "schedule's shrunk JSON into DIR, ready for promotion to "
            "tests/machines/corpus/"
        ),
    )
    parser.add_argument(
        "--hosts", type=int, default=None, metavar="N",
        help=(
            "with the adversary command: fix the cluster size instead "
            "of drawing 3-5 per schedule"
        ),
    )
    return parser


def _claims(args) -> Tuple[List[str], int]:
    from repro.experiments.claims import measure_claims

    report = measure_claims(
        args.ids,
        quick=args.quick,
        requests=args.requests,
        repeats=1 if args.quick else args.repeats,
        seed=args.seed,
    )
    return [report.render(args.format)], 0 if report.as_expected else 1


def _scale(args) -> Tuple[List[str], List[str]]:
    """The scale family (X2's grid) and, with --scale-out, its JSON."""
    import json

    from repro.experiments.claims import CLAIMS
    from repro.experiments.scale import run_scale

    grid = CLAIMS["X2"].grid(quick=args.quick, requests=args.requests)
    family = run_scale(
        interarrivals=grid["interarrivals"],
        variants=grid["variants"],
        requests_per_client=grid["requests"],
        repeats=1 if args.quick else args.repeats,
        seed=args.seed,
    )
    notes = []
    if args.scale_out:
        with open(args.scale_out, "w", encoding="utf-8") as handle:
            json.dump(family.payload(), handle, indent=2, sort_keys=True)
        notes.append(f"saturation curves written to {args.scale_out}")
    return [family.table.render(args.format)], notes


def _live(args) -> List[str]:
    from repro.runtime import LiveCluster

    n_writes = 6 if args.quick else 15
    with LiveCluster(n_replicas=3, backend="thread", seed=args.seed) as c:
        for index in range(n_writes):
            c.submit_write(c.hosts[index % len(c.hosts)], "x", index)
        records = c.wait_for(n_writes, timeout=60)
    audit = c.audit()
    committed = sum(1 for r in records if r["status"] == "committed")
    return [
        "Live threaded backend (real pickled agent migration):",
        f"  committed {committed}/{n_writes} updates; "
        f"consistent={audit.consistent}; commits={audit.total_commits}",
    ]


def _obs(args, hub) -> List[str]:
    from repro.experiments.runner import RunConfig, run_once
    from repro.obs.export import format_report, summary_line
    from repro.obs.journeys import format_journey_report, reconstruct_journeys

    result = run_once(RunConfig(
        protocol="marp",
        n_replicas=3,
        mean_interarrival=30.0,
        requests_per_client=3 if args.quick else min(args.requests, 10),
        seed=args.seed,
    ))
    return [
        format_report(hub, title="obs: instrumented MARP run (3 replicas)"),
        format_journey_report(reconstruct_journeys(hub)),
        f"run: committed={result.committed} failed={result.failed} "
        f"ALT={result.alt:.1f}ms ATT={result.att:.1f}ms "
        f"consistent={result.audit.consistent}",
        summary_line(hub),
    ]


def _obs_self_check() -> int:
    from repro.obs.selfcheck import self_check

    report = self_check(verbose=True)
    for failure in report.failed:
        print(f"FAILED: {failure}", file=sys.stderr)
    print(report.summary())
    return 0 if report.ok else 1


def _adversary(args) -> int:
    """The ``adversary`` command: fault campaigns over the kernel.

    Three modes: ``--replay FILE`` checks one schedule script,
    ``--index I`` checks exactly one campaign schedule (the printed
    reproduction command), and the default runs a ``--schedules``-sized
    seeded campaign, shrinking and optionally saving every failure.
    Exit code 1 means an invariant was violated.
    """
    from repro.core.machines.adversary import (
        InvariantViolation, Schedule, campaign_rng, check_schedule,
        generate_schedule, reproduction_command, run_campaign,
        shrink_schedule,
    )

    def check_one(schedule, label):
        try:
            outcome = check_schedule(schedule)
        except InvariantViolation as exc:
            print(f"{label}: VIOLATION [{exc.kind}] {exc.detail}",
                  file=sys.stderr)
            shrunk = shrink_schedule(schedule)
            print("shrunk replayable schedule:", file=sys.stderr)
            print(shrunk.to_json(), file=sys.stderr)
            if args.save_failures:
                import os

                os.makedirs(args.save_failures, exist_ok=True)
                path = shrunk.save(os.path.join(
                    args.save_failures, "adversary_failure.json"
                ))
                print(f"saved: {path}", file=sys.stderr)
            return 1
        print(f"{label}: ok — statuses {outcome.statuses}, "
              f"{outcome.events} events")
        return 0

    if args.replay is not None:
        return check_one(Schedule.load(args.replay), args.replay)
    if args.index is not None:
        schedule = generate_schedule(
            campaign_rng(args.seed, args.index), n_hosts=args.hosts
        )
        return check_one(
            schedule, f"schedule {args.index} (seed {args.seed})"
        )

    report = run_campaign(
        args.schedules,
        seed=args.seed,
        n_hosts=args.hosts,
        save_failures=args.save_failures,
    )
    for failure in report.failures:
        print(
            f"schedule {failure.index}: VIOLATION [{failure.kind}] "
            f"{failure.detail}",
            file=sys.stderr,
        )
        print(
            f"  reproduce: {reproduction_command(report.seed, failure.index)}",
            file=sys.stderr,
        )
        if failure.path:
            print(f"  shrunk schedule saved: {failure.path}",
                  file=sys.stderr)
    print(report.summary())
    return 0 if report.ok else 1


def _check_export_paths(args) -> None:
    """Fail fast on unwritable --metrics-out/--trace-out destinations
    (before the experiment runs, not after)."""
    import os

    for path in (args.metrics_out, args.trace_out):
        if not path:
            continue
        parent = os.path.dirname(path) or "."
        if not os.path.isdir(parent):
            raise SystemExit(
                f"repro-marp: error: cannot write {path!r}: "
                f"directory {parent!r} does not exist"
            )


def _write_obs_exports(args, hub) -> List[str]:
    from repro.obs.export import (
        summary_line, write_chrome_trace, write_jsonl,
    )

    lines = []
    if args.metrics_out:
        write_jsonl(hub, args.metrics_out, spans=False, events=False)
        lines.append(summary_line(hub, destination=args.metrics_out))
    if args.trace_out:
        if args.trace_format == "chrome":
            write_chrome_trace(hub, args.trace_out)
        else:
            write_jsonl(hub, args.trace_out, metrics=False)
        lines.append(summary_line(hub, destination=args.trace_out))
    return lines


def _build_runner(args):
    """The experiment engine for this invocation, or None for defaults.

    ``--jobs N`` (N >= 2) fans runs out over a process pool.
    """
    from repro.experiments.parallel import ParallelRunner

    if args.jobs < 1:
        raise SystemExit(f"repro-marp: error: --jobs must be >= 1: {args.jobs}")
    if args.jobs == 1:
        return None
    return ParallelRunner(jobs=args.jobs)


def _parse(argv: Optional[List[str]]) -> argparse.Namespace:
    """Parse and cross-check: claim ids only with ``claims``, a table
    format only where there is a table."""
    parser = build_parser()
    args = parser.parse_intermixed_args(argv)
    if args.ids and args.command != "claims":
        parser.error(f"claim ids are for the claims command: {args.ids}")
    args.ids = [claim_id.upper() for claim_id in args.ids]
    if args.ids:
        from repro.experiments.claims import CLAIMS

        unknown = [claim_id for claim_id in args.ids
                   if claim_id not in CLAIMS]
        if unknown:
            parser.error(
                f"unknown claim id(s) {', '.join(unknown)} "
                f"(choose from {', '.join(CLAIMS)})"
            )
    if args.format != "text" and args.command not in ("claims", "scale"):
        parser.error(
            f"--format {args.format} applies to the claims and scale "
            "commands"
        )
    return args


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _parse(argv)
    command = args.command

    if command == "obs" and args.self_check:
        return _obs_self_check()

    hub = None
    if command == "obs" or args.metrics_out or args.trace_out:
        from repro import obs

        _check_export_paths(args)
        hub = obs.enable(obs.ObservabilityHub())

    if command == "adversary":
        # Runs under the hub when one is enabled (campaign counters).
        try:
            code = _adversary(args)
            if hub is not None:
                for line in _write_obs_exports(args, hub):
                    print(line)
            return code
        finally:
            if hub is not None:
                from repro.obs import disable

                disable()

    runner = _build_runner(args)
    previous_runner = None
    if runner is not None:
        from repro.experiments.parallel import set_default_runner

        # Every experiment command routes its runs through the default
        # engine, so installing one here parallelises them all.
        previous_runner = set_default_runner(runner)
    try:
        code, notes = 0, []
        if command == "claims":
            sections, code = _claims(args)
        elif command == "scale":
            sections, notes = _scale(args)
        elif command == "live":
            sections = _live(args)
        else:
            sections = _obs(args, hub)
        if hub is not None:
            notes += _write_obs_exports(args, hub)
        if args.format == "text":
            print("\n\n".join(sections + notes))
        else:
            # stdout holds exactly one CSV or JSON document
            print("\n".join(sections).rstrip("\n"))
            for note in notes:
                print(note, file=sys.stderr)
        return code
    finally:
        if runner is not None:
            from repro.experiments.parallel import set_default_runner

            set_default_runner(previous_runner)
            runner.close()
        if hub is not None:
            from repro.obs import disable

            disable()


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
