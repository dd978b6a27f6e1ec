"""Analysis layer: paper metrics, consistency audits, stats, tables."""

from repro.analysis.consistency import AuditReport, assert_consistent, audit
from repro.analysis.metrics import (
    alt,
    att,
    committed_writes,
    prk,
    response_times,
    throughput,
    visit_counts,
)
from repro.analysis.stats import Summary, confidence_interval, summarize
from repro.analysis.tables import Table, format_series, format_table
from repro.analysis.tracelog import ProtocolTrace, TraceEvent

__all__ = [
    "alt",
    "att",
    "prk",
    "visit_counts",
    "committed_writes",
    "response_times",
    "throughput",
    "AuditReport",
    "audit",
    "assert_consistent",
    "Summary",
    "summarize",
    "confidence_interval",
    "Table",
    "format_table",
    "format_series",
    "ProtocolTrace",
    "TraceEvent",
]
