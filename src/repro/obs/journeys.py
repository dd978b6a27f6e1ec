"""Whole-journey reconstruction and critical-path latency analysis.

Every span an update agent records — in either backend — is stamped
with the agent's **trace id** (``str(agent_id)``, carried in the
migrating state and in every wire payload). This module reassembles
those spans into :class:`Journey` objects, one per update agent, and
decomposes each journey's latency into the phases the paper's model
talks about:

``ALT`` (agent lock time, dispatch → final lock acquisition) =
``travel`` (migration hops) + ``park`` ([D2] waits) + ``retry``
(failed claim rounds) + ``service`` (the residual: visit service time
and local processing).

``ATT`` (agent total time, dispatch → dispose) = ``ALT`` + ``commit``
(the winning claim) + ``tail`` (post-commit bookkeeping). The path
names how the winning claim ran: an UPDATE round, or a majority of
grants taken on the agent's visits (``visit``: no round, so its
``commit`` is the RMW fetches at most).

The two identities hold *exactly* by construction — ``service`` and
``tail`` are residuals — so a journey's decomposition always sums to
the measured ALT/ATT, which is the property the integration tests
assert against :class:`~repro.replication.requests.RequestRecord`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.analysis.tables import format_table
from repro.obs.tracing import Span, SpanTracer

__all__ = [
    "Hop",
    "CriticalPath",
    "Journey",
    "reconstruct_journeys",
    "critical_path",
    "format_journey_report",
]


@dataclass(frozen=True)
class Hop:
    """One migration leg of a journey."""

    src: str
    dst: str
    start: float
    end: float
    status: str = "ok"

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class CriticalPath:
    """Additive latency decomposition of one journey (all ms).

    ``travel + park + retry + service == alt`` and
    ``alt + commit + tail == att`` hold exactly; ``service`` and
    ``tail`` are defined as the residuals. ``claim`` is how the
    committed claim ran: ``"round"`` (UPDATE broadcast), ``"visit"``
    (on visit grants), ``"behind"`` (a round pipelined behind the
    majority winner) or ``""`` (none committed).
    """

    travel_ms: float
    park_ms: float
    retry_ms: float
    service_ms: float
    alt_ms: float
    commit_ms: float
    tail_ms: float
    att_ms: float
    claim: str = ""

    @property
    def dominant(self) -> str:
        """The largest ALT component (ties go to the earlier phase)."""
        parts = [
            ("travel", self.travel_ms),
            ("park", self.park_ms),
            ("retry", self.retry_ms),
            ("service", self.service_ms),
        ]
        return max(parts, key=lambda item: item[1])[0]

    def as_dict(self) -> Dict[str, float]:
        return {
            "travel_ms": self.travel_ms,
            "park_ms": self.park_ms,
            "retry_ms": self.retry_ms,
            "service_ms": self.service_ms,
            "alt_ms": self.alt_ms,
            "commit_ms": self.commit_ms,
            "tail_ms": self.tail_ms,
            "att_ms": self.att_ms,
        }


@dataclass
class Journey:
    """One update agent's whole life, reassembled from its spans."""

    trace_id: str
    root: Span
    spans: List[Span] = field(default_factory=list)

    @property
    def agent(self) -> str:
        return str(self.root.attrs.get("agent", self.trace_id))

    @property
    def backend(self) -> str:
        return str(self.root.attrs.get("backend", "?"))

    @property
    def batch_id(self) -> Any:
        return self.root.attrs.get("batch_id")

    @property
    def status(self) -> str:
        return self.root.status

    @property
    def complete(self) -> bool:
        """Every span of the journey (including the root) is finished."""
        return all(span.finished for span in self.spans)

    def named(self, name: str) -> List[Span]:
        return [s for s in self.spans if s.name == name]

    @property
    def hops(self) -> List[Hop]:
        """Migration legs in start order (the agent's itinerary)."""
        legs = []
        for span in self.named("migrate"):
            if not span.finished:
                continue
            legs.append(Hop(
                src=str(span.attrs.get("src", "?")),
                dst=str(span.attrs.get("dst", "?")),
                start=span.start,
                end=span.end,
                status=span.status,
            ))
        legs.sort(key=lambda hop: hop.start)
        return legs

    @property
    def path(self) -> CriticalPath:
        return critical_path(self)

    def __repr__(self) -> str:
        return (
            f"<Journey {self.trace_id!r} {self.status} "
            f"spans={len(self.spans)} hops={len(self.hops)}>"
        )


def _tracer_of(source: Union[SpanTracer, Any]) -> SpanTracer:
    if isinstance(source, SpanTracer):
        return source
    tracer = getattr(source, "tracer", None)
    if isinstance(tracer, SpanTracer):
        return tracer
    raise TypeError(f"expected a SpanTracer or hub, got {type(source)!r}")


def reconstruct_journeys(
    source: Union[SpanTracer, Any],
    trace_id: Optional[str] = None,
) -> List[Journey]:
    """Group the tracer's spans into per-agent journeys.

    ``source`` is a :class:`SpanTracer` or anything with a ``.tracer``
    (an :class:`~repro.obs.hub.ObservabilityHub`). Spans with no trace
    id — experiment-harness spans, ad-hoc instrumentation — are left
    out. Journeys are returned in root-span start order; each journey's
    spans are sorted by ``(start, span_id)`` so interleaved recording
    (live host threads racing) cannot perturb the reconstruction.
    """
    tracer = _tracer_of(source)
    groups: Dict[str, List[Span]] = {}
    for span in tracer.spans:
        if span.trace_id is None:
            continue
        if trace_id is not None and span.trace_id != trace_id:
            continue
        groups.setdefault(span.trace_id, []).append(span)

    journeys = []
    for tid, spans in groups.items():
        spans.sort(key=lambda s: (s.start, s.span_id))
        roots = [s for s in spans if s.name == "request"]
        if not roots:
            # A partial trace (e.g. process-backend fragments): anchor
            # on the earliest span so the journey is still inspectable.
            roots = [spans[0]]
        journeys.append(Journey(trace_id=tid, root=roots[0], spans=spans))
    journeys.sort(key=lambda j: (j.root.start, j.root.span_id))
    return journeys


def _closed(spans: Sequence[Span]) -> List[Span]:
    return [s for s in spans if s.finished]


def critical_path(journey: Journey) -> CriticalPath:
    """Decompose one journey's latency; see the module docstring.

    Journeys with an unfinished root (the run was cut short) get the
    decomposition of the portion that *did* happen, with ``att``/
    ``tail`` measured up to the last recorded span end.
    """
    root = journey.root
    start = root.start
    ends = [s.end for s in _closed(journey.spans)]
    att_end = root.end if root.finished else (max(ends) if ends else start)
    att = att_end - start

    lock_waits = _closed(journey.named("lock-wait"))
    alt_end = max((s.end for s in lock_waits), default=start)
    alt = alt_end - start

    travel = float(sum(s.duration for s in _closed(journey.named("migrate"))))
    park = float(sum(s.duration for s in _closed(journey.named("park"))))
    claims = _closed(journey.named("claim"))
    retry = float(sum(s.duration for s in claims if s.status != "committed"))
    won = [s for s in claims if s.status == "committed"]
    commit = float(sum(s.duration for s in won))
    # Residuals make the identities exact (see module docstring).
    service = alt - travel - park - retry
    tail = att - alt - commit
    return CriticalPath(
        travel_ms=travel, park_ms=park, retry_ms=retry, service_ms=service,
        alt_ms=alt, commit_ms=commit, tail_ms=tail, att_ms=att,
        claim=str(won[-1].attrs.get("path", "")) if won else "",
    )


def format_journey_report(
    journeys: Sequence[Journey],
    title: str = "agent journeys (critical path, ms)",
) -> str:
    """Aligned text table: one row per journey plus a totals row."""
    if not journeys:
        return f"{title}\n{'=' * max(len(title), 8)}\n(no journeys recorded)"
    rows: List[List[Any]] = []
    totals = [0.0] * 6
    for journey in journeys:
        path = journey.path
        cells: Tuple[float, ...] = (
            path.travel_ms, path.park_ms, path.retry_ms, path.service_ms,
            path.alt_ms, path.att_ms,
        )
        for index, value in enumerate(cells):
            totals[index] += value
        rows.append([
            journey.agent, journey.backend, journey.status,
            len(journey.hops), path.claim or "-", path.dominant,
            *(round(value, 3) for value in cells),
        ])
    count = len(journeys)
    rows.append([
        f"mean/{count}", "-", "-", "-", "-", "-",
        *(round(value / count, 3) for value in totals),
    ])
    return format_table(
        ["agent", "backend", "status", "hops", "claim", "dominant",
         "travel", "park", "retry", "service", "alt", "att"],
        rows, title=title,
    )
