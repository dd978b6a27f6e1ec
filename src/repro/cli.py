"""Command-line entry point: regenerate any paper figure or table.

Usage::

    python -m repro fig2 [--repeats 2] [--requests 20] [--seed 0]
    python -m repro fig3
    python -m repro fig4
    python -m repro compare          # T1: protocol comparison (LAN)
    python -m repro wan              # T2: LAN vs WAN scaling
    python -m repro theorems         # T3: Theorem 3 bounds
    python -m repro ablations        # A1-A3
    python -m repro live             # live threaded backend demo
    python -m repro obs              # instrumented demo run + report
    python -m repro obs --self-check # observability pipeline self-test
    python -m repro adversary --schedules 200 --seed 0   # fault campaign
    python -m repro adversary --seed 0 --index 46        # one schedule
    python -m repro adversary --replay failure.json      # replay a script
    python -m repro all              # every experiment above

Any experiment command accepts ``--metrics-out FILE.jsonl`` /
``--trace-out FILE.jsonl`` to run it under a process-wide
observability hub and dump the telemetry as JSONL (metrics only /
spans+events only, respectively), with an end-of-run summary line.
``--trace-format chrome`` switches the trace dump to Chrome
``trace_event`` JSON, loadable directly in Perfetto.

Any experiment command also accepts ``--jobs/-j N`` to fan its runs out
over N worker processes (bit-identical results, see
docs/experiments.md) and ``--cache-dir DIR`` / ``--no-cache`` to serve
repeated configs from the on-disk result cache.

Installed as the ``repro-marp`` console script as well.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

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
        choices=[
            "fig2", "fig3", "fig4", "compare", "wan", "theorems",
            "ablations", "scale", "scalability", "availability",
            "throughput", "live",
            "obs", "adversary", "all",
        ],
        help="which experiment to regenerate",
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
        "--cache-dir", metavar="DIR", default=None,
        help=(
            "cache run results on disk under DIR so identical configs "
            "are served from cache on re-runs (also enabled by setting "
            "$REPRO_CACHE_DIR)"
        ),
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help=(
            "disable the result cache even when --cache-dir or "
            "$REPRO_CACHE_DIR is set"
        ),
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="small fast settings (single repeat, fewer points)",
    )
    parser.add_argument(
        "--format", choices=["text", "csv", "json"], default="text",
        help="output format for figures and comparison tables",
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


def _render_figure(args, figure) -> str:
    if args.format == "csv":
        from repro.analysis.export import figure_to_csv

        return figure_to_csv(figure)
    if args.format == "json":
        from repro.analysis.export import figure_to_json

        return figure_to_json(figure)
    return figure.text


def _render_comparison(args, table) -> str:
    if args.format == "csv":
        from repro.analysis.export import comparison_to_csv

        return comparison_to_csv(table)
    if args.format == "json":
        from repro.analysis.export import comparison_to_json

        return comparison_to_json(table)
    return table.text


def _figures(args, which: str) -> List[str]:
    from repro.experiments import (
        latency_sweep, project_fig2, project_fig3, run_fig4,
    )

    interarrivals = (20, 45, 80) if args.quick else None
    repeats = 1 if args.quick else args.repeats
    kwargs = dict(
        requests_per_client=args.requests, repeats=repeats, seed=args.seed,
    )
    if interarrivals:
        kwargs["interarrivals"] = interarrivals
    if which in ("fig2", "fig3"):
        points = latency_sweep(**kwargs)
        figure = (
            project_fig2(points) if which == "fig2" else project_fig3(points)
        )
    else:
        figure = run_fig4(**kwargs)
    return [_render_figure(args, figure)]


def _compare(args, wan: bool) -> List[str]:
    from repro.experiments import run_comparison

    repeats = 1 if args.quick else args.repeats
    if wan:
        table = run_comparison(
            latencies=("lan", "wan"),
            mean_interarrival=400.0,
            requests_per_client=args.requests,
            repeats=repeats,
            seed=args.seed,
            title="T2: LAN vs WAN scaling",
        )
    else:
        table = run_comparison(
            mean_interarrival=30.0,
            requests_per_client=args.requests,
            repeats=repeats,
            seed=args.seed,
            title="T1: protocol comparison under contention (LAN)",
        )
    return [_render_comparison(args, table)]


def _theorems(args) -> List[str]:
    from repro.experiments import theorem3_bounds

    out = []
    for n in (3, 5):
        report = theorem3_bounds(
            n_replicas=n,
            requests_per_client=args.requests,
            repeats=1 if args.quick else args.repeats,
            seed=args.seed,
        )
        out.append(report.text)
    return out


def _ablations(args) -> List[str]:
    from repro.experiments import (
        run_batching_ablation,
        run_bulletin_ablation,
        run_itinerary_ablation,
    )

    repeats = 1 if args.quick else args.repeats
    kwargs = dict(repeats=repeats, seed=args.seed)
    return [
        run_itinerary_ablation(**kwargs).text,
        run_bulletin_ablation(**kwargs).text,
        run_batching_ablation(**kwargs).text,
    ]


def _scale(args) -> List[str]:
    import json

    from repro.experiments import run_scale
    from repro.experiments.scale import (
        DEFAULT_INTERARRIVALS,
        QUICK_INTERARRIVALS,
        default_variants,
    )

    family = run_scale(
        interarrivals=(
            QUICK_INTERARRIVALS if args.quick else DEFAULT_INTERARRIVALS
        ),
        variants=(
            default_variants(replica_counts=(), key_counts=(),
                             skews=(0.99,), wan=False)
            if args.quick else None
        ),
        requests_per_client=(
            min(args.requests, 40) if args.quick else args.requests
        ),
        repeats=1 if args.quick else args.repeats,
        seed=args.seed,
    )
    sections = [family.text]
    if args.scale_out:
        with open(args.scale_out, "w", encoding="utf-8") as handle:
            json.dump(family.payload(), handle, indent=2, sort_keys=True)
        sections.append(f"saturation curves written to {args.scale_out}")
    return sections


def _scalability(args) -> List[str]:
    from repro.experiments import run_scalability

    table = run_scalability(
        replica_counts=(3, 5, 7) if args.quick else (3, 5, 7, 9),
        requests_per_client=min(args.requests, 10),
        repeats=1 if args.quick else args.repeats,
        seed=args.seed,
    )
    return [table.text]


def _availability(args) -> List[str]:
    from repro.experiments import run_availability

    table = run_availability(
        requests_per_client=min(args.requests, 6),
        repeats=1 if args.quick else args.repeats,
        seed=args.seed,
    )
    return [table.text]


def _throughput(args) -> List[str]:
    from repro.experiments import run_throughput

    table = run_throughput(
        interarrivals=(10.0, 30.0, 80.0) if args.quick
        else (10.0, 20.0, 40.0, 80.0, 160.0),
        requests_per_client=min(args.requests, 15),
        repeats=1 if args.quick else args.repeats,
        seed=args.seed,
    )
    return [table.text]


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
    from repro.obs import self_check

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

    Caching is opt-in: ``--cache-dir DIR`` or ``$REPRO_CACHE_DIR``
    enables it, ``--no-cache`` wins over both. ``--jobs N`` (N >= 2)
    fans runs out over a process pool.
    """
    import os

    from repro.experiments.cache import ResultCache, default_cache_dir
    from repro.experiments.parallel import ParallelRunner

    if args.jobs < 1:
        raise SystemExit(f"repro-marp: error: --jobs must be >= 1: {args.jobs}")
    cache = None
    if not args.no_cache and (
        args.cache_dir or os.environ.get("REPRO_CACHE_DIR")
    ):
        cache = ResultCache(args.cache_dir or default_cache_dir())
    if args.jobs == 1 and cache is None:
        return None
    return ParallelRunner(jobs=args.jobs, cache=cache)


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    sections: List[str] = []
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
        # engine, so installing one here parallelises/caches them all.
        previous_runner = set_default_runner(runner)
    try:
        if command == "obs":
            sections += _obs(args, hub)
        if command in ("fig2", "all"):
            sections += _figures(args, "fig2")
        if command in ("fig3", "all"):
            sections += _figures(args, "fig3")
        if command in ("fig4", "all"):
            sections += _figures(args, "fig4")
        if command in ("compare", "all"):
            sections += _compare(args, wan=False)
        if command in ("wan", "all"):
            sections += _compare(args, wan=True)
        if command in ("theorems", "all"):
            sections += _theorems(args)
        if command in ("ablations", "all"):
            sections += _ablations(args)
        if command in ("scale", "all"):
            sections += _scale(args)
        if command in ("scalability", "all"):
            sections += _scalability(args)
        if command in ("availability", "all"):
            sections += _availability(args)
        if command in ("throughput", "all"):
            sections += _throughput(args)
        if command in ("live", "all"):
            sections += _live(args)
        if hub is not None:
            sections += _write_obs_exports(args, hub)
        print("\n\n".join(sections))
        return 0
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
