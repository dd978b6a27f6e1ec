"""repro.obs — the unified observability layer.

One-stop shop for telemetry: a labelled metrics registry
(:mod:`repro.obs.registry`), span-based tracing over the simulation
clock (:mod:`repro.obs.tracing`), and exporters (JSONL, Prometheus
text, human tables; :mod:`repro.obs.export`). The
:class:`~repro.obs.hub.ObservabilityHub` bundles all of it; install one
process-wide with :func:`enable` or inject one into a
:class:`~repro.replication.deployment.Deployment`. This package exports
only the hub API; everything else is imported from its own module.

Typical use::

    from repro import obs
    from repro.experiments.claims import measure_claims
    from repro.obs.export import format_report, write_jsonl

    hub = obs.enable()                  # instrument everything built next
    report = measure_claims(["T1"])     # any experiment entry point
    print(format_report(hub))
    write_jsonl(hub, "metrics.jsonl")
"""

from repro.obs.hub import ObservabilityHub, disable, enable, get_hub, set_hub

__all__ = ["ObservabilityHub", "get_hub", "set_hub", "enable", "disable"]
