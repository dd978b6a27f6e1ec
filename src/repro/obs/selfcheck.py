"""End-to-end self-check of the observability layer.

Run from the CLI as ``python -m repro obs --self-check`` (CI executes
this on every push). It exercises the full pipeline — registry
semantics, span nesting, a real instrumented MARP run, journey
reconstruction, JSONL/Chrome round-trips and the Prometheus/report
renderers. Failures are *collected*, not raised: every check runs even
after one fails, and the CLI reports ``passed/total`` with a nonzero
exit code when anything failed, so one broken exporter does not mask
the state of the rest of the pipeline.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass, field
from typing import Callable, List

__all__ = ["SelfCheckReport", "self_check"]


@dataclass
class SelfCheckReport:
    """Outcome of one self-check run."""

    passed: List[str] = field(default_factory=list)
    failed: List[str] = field(default_factory=list)  # "name: detail"

    @property
    def total(self) -> int:
        return len(self.passed) + len(self.failed)

    @property
    def ok(self) -> bool:
        return not self.failed

    def summary(self) -> str:
        return f"obs self-check: {len(self.passed)}/{self.total} checks passed"


class _Checker:
    def __init__(self, report: SelfCheckReport, verbose: bool) -> None:
        self.report = report
        self.verbose = verbose

    def __call__(self, name: str, condition: bool) -> None:
        if condition:
            self.report.passed.append(name)
            if self.verbose:
                print(f"  ok: {name}")
        else:
            self.report.failed.append(name)
            if self.verbose:
                print(f"  FAIL: {name}")

    def section(self, name: str, body: Callable[[], None]) -> None:
        """Run one check group; an exception fails the *group*, not the
        whole self-check, so later groups still report."""
        try:
            body()
        except Exception as exc:  # noqa: BLE001 - report, don't crash
            self.report.failed.append(f"{name}: {type(exc).__name__}: {exc}")
            if self.verbose:
                print(f"  FAIL: {name}: {type(exc).__name__}: {exc}")


def self_check(verbose: bool = False) -> SelfCheckReport:
    """Run every check; returns the collected pass/fail report."""
    from repro.obs import export, hub as hub_mod, journeys
    from repro.obs.hub import ObservabilityHub
    from repro.obs.registry import MetricsRegistry
    from repro.obs.tracing import SpanTracer

    report = SelfCheckReport()
    check = _Checker(report, verbose)

    def registry_semantics() -> None:
        registry = MetricsRegistry()
        counter = registry.counter("c_total", labelnames=("host",))
        counter.inc(host="s1")
        counter.inc(2, host="s1")
        counter.inc(host="s2")
        check("counter labelled accumulation",
              counter.value(host="s1") == 3.0 and counter.total() == 4.0)
        gauge = registry.gauge("g")
        gauge.set(5.0)
        gauge.dec(2.0)
        check("gauge set/dec", gauge.value() == 3.0)
        histogram = registry.histogram("h_ms", buckets=(1.0, 10.0))
        for value in (0.5, 5.0, 50.0):
            histogram.observe(value)
        check("histogram buckets",
              histogram.bucket_counts()
              == {1.0: 1, 10.0: 2, float("inf"): 3})
        check("registry get-or-create",
              registry.counter("c_total", labelnames=("host",)) is counter)

    def span_nesting() -> None:
        clock = {"t": 0.0}
        tracer = SpanTracer(clock=lambda: clock["t"])
        with tracer.span("outer") as outer:
            clock["t"] = 1.0
            with tracer.span("inner") as inner:
                tracer.event("tick", time=1.5)
                clock["t"] = 2.0
            clock["t"] = 3.0
        check("span parent link", inner.parent_id == outer.span_id)
        check("span timestamps",
              outer.duration == 3.0 and inner.duration == 1.0
              and tracer.events[0].time == 1.5)

    # -- instrumented run (shared by the later groups) --------------------
    run_hub = ObservabilityHub()

    def instrumented_run() -> None:
        from repro.replication.deployment import Deployment
        from repro.replication.protocol import MARP

        deployment = Deployment(n_replicas=3, seed=0, obs=run_hub)
        deployment.enable_tracing()  # protocol.* events join the hub
        marp = MARP(deployment)
        marp.submit_write("s1", "x", 1)
        marp.submit_write("s2", "x", 2)
        deployment.run(until=100_000)
        names = run_hub.registry.names()
        check("instrumented run emits metrics", len(names) >= 6)
        check("sim events counted",
              run_hub.registry.get("sim_events_total").total() > 0)
        check("request spans recorded",
              len(run_hub.tracer.spans_named("request")) == 2)
        check("no dangling spans", not run_hub.tracer.open_spans())

    def journey_reconstruction() -> None:
        trips = journeys.reconstruct_journeys(run_hub)
        check("journeys reconstruct per agent", len(trips) == 2)
        check("journeys are complete",
              all(trip.complete for trip in trips))
        paths = [trip.path for trip in trips]
        check("critical path sums to ALT",
              all(abs(p.travel_ms + p.park_ms + p.retry_ms + p.service_ms
                      - p.alt_ms) < 1e-6 for p in paths))
        check("critical path sums to ATT",
              all(abs(p.alt_ms + p.commit_ms + p.tail_ms - p.att_ms) < 1e-6
                  for p in paths))

    def exporters() -> None:
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "obs.jsonl")
            written = export.write_jsonl(run_hub, path)
            records = export.read_jsonl(path)
            check("jsonl round-trip", written == len(records) and written > 0)
            kinds = {record["type"] for record in records}
            check("jsonl record types", kinds == {"metric", "span", "event"})
            check("jsonl is valid json lines",
                  all(isinstance(r, dict) for r in records))
            blob = json.dumps(records[0])
            check("jsonl re-serialisable", isinstance(blob, str))
            chrome = export.chrome_trace(records)
            spans = [r for r in records if r["type"] == "span"]
            xs = [e for e in chrome["traceEvents"] if e["ph"] == "X"]
            check("chrome trace keeps span count", len(xs) == len(spans))
            chrome_path = os.path.join(tmp, "trace.json")
            count = export.write_chrome_trace(run_hub, chrome_path)
            with open(chrome_path, "r", encoding="utf-8") as handle:
                loaded = json.load(handle)
            check("chrome trace file loads",
                  len(loaded["traceEvents"]) == count > 0)
        text = export.prometheus_text(run_hub.registry)
        check("prometheus exposition",
              "# TYPE sim_events_total counter" in text)
        rendered = export.format_report(run_hub)
        check("human report renders", "spans" in rendered)

    def hub_lifecycle() -> None:
        previous = hub_mod._active_hub
        try:
            installed = hub_mod.enable()
            check("enable installs hub", hub_mod.get_hub() is installed)
            hub_mod.disable()
            check("disable removes hub", hub_mod.get_hub() is None)
        finally:
            hub_mod.set_hub(previous)

    check.section("registry semantics", registry_semantics)
    check.section("span nesting", span_nesting)
    check.section("instrumented run", instrumented_run)
    check.section("journey reconstruction", journey_reconstruction)
    check.section("exporters", exporters)
    check.section("global hub lifecycle", hub_lifecycle)
    return report
