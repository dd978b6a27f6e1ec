"""repro.obs — the unified observability layer.

One-stop shop for telemetry: a labelled metrics registry
(:class:`Counter` / :class:`Gauge` / :class:`Histogram`), span-based
tracing over the simulation clock, and exporters (JSONL, Prometheus
text, human tables). The :class:`ObservabilityHub` bundles all of it;
install one process-wide with :func:`enable` or inject one into a
:class:`~repro.replication.deployment.Deployment`.

Typical use::

    from repro import obs

    hub = obs.enable()                  # instrument everything built next
    report = measure_claims(["T1"])     # any experiment entry point
    print(obs.format_report(hub))
    obs.write_jsonl(hub, "metrics.jsonl")
"""

from repro.obs.export import (
    chrome_trace,
    format_report,
    iter_jsonl_records,
    prometheus_text,
    read_jsonl,
    summary_line,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.hub import (
    ObservabilityHub,
    disable,
    enable,
    get_hub,
    set_hub,
)
from repro.obs.registry import (
    DEFAULT_LATENCY_BUCKETS_MS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Sample,
)
from repro.obs.journeys import (
    CriticalPath,
    Journey,
    critical_path,
    format_journey_report,
    reconstruct_journeys,
)
from repro.obs.selfcheck import SelfCheckReport, self_check
from repro.obs.tracing import ObsEvent, Span, SpanTracer

__all__ = [
    # hub lifecycle
    "ObservabilityHub",
    "get_hub",
    "set_hub",
    "enable",
    "disable",
    # metrics
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "Sample",
    "DEFAULT_LATENCY_BUCKETS_MS",
    # tracing
    "SpanTracer",
    "Span",
    "ObsEvent",
    # exporters
    "iter_jsonl_records",
    "write_jsonl",
    "read_jsonl",
    "prometheus_text",
    "format_report",
    "summary_line",
    "chrome_trace",
    "write_chrome_trace",
    # journeys / critical path
    "Journey",
    "CriticalPath",
    "reconstruct_journeys",
    "critical_path",
    "format_journey_report",
    # diagnostics
    "self_check",
    "SelfCheckReport",
]
