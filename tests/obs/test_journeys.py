"""Journey reconstruction and critical-path decomposition (unit)."""

import math

import pytest

from repro.obs.hub import ObservabilityHub
from repro.obs.journeys import (
    CriticalPath,
    critical_path,
    format_journey_report,
    reconstruct_journeys,
)
from repro.obs.tracing import SpanTracer


def _journey(tracer, trace_id, offset=0.0, fail_first_claim=False,
             path="round"):
    """Record one synthetic agent journey starting at ``offset`` ms."""
    root = tracer.start_span(
        "request", start=offset, trace_id=trace_id, agent=trace_id,
        backend="synthetic", batch_id=1,
    )
    wait = tracer.start_span(
        "lock-wait", parent=root, start=offset, trace_id=trace_id
    )
    tracer.start_span(
        "migrate", parent=root, start=offset + 1.0, trace_id=trace_id,
        src="s1", dst="s2",
    ).finish(end=offset + 3.0)
    tracer.start_span(
        "park", parent=root, start=offset + 4.0, trace_id=trace_id,
        host="s2",
    ).finish(end=offset + 6.0)
    if fail_first_claim:
        wait.finish(end=offset + 7.0)
        tracer.start_span(
            "claim", parent=root, start=offset + 7.0, trace_id=trace_id,
        ).finish(end=offset + 8.0, status="conflict")
        wait = tracer.start_span(
            "lock-wait", parent=root, start=offset + 8.0, trace_id=trace_id
        )
        wait.finish(end=offset + 10.0)
    else:
        wait.finish(end=offset + 10.0)
    tracer.start_span(
        "claim", parent=root, start=offset + 10.0, trace_id=trace_id,
        path=path,
    ).finish(end=offset + 13.0, status="committed")
    root.finish(end=offset + 14.0, status="committed")
    return root


class TestReconstruction:
    def test_groups_by_trace_id(self):
        tracer = SpanTracer()
        _journey(tracer, "a#0")
        _journey(tracer, "b#0", offset=5.0)
        journeys = reconstruct_journeys(tracer)
        assert [j.trace_id for j in journeys] == ["a#0", "b#0"]
        assert all(j.root.name == "request" for j in journeys)
        assert all(j.complete for j in journeys)

    def test_interleaved_spans_do_not_cross_link(self):
        """Two agents recording turn-by-turn reassemble independently."""
        tracer = SpanTracer()
        root_a = tracer.start_span("request", start=0.0, trace_id="a#0")
        root_b = tracer.start_span("request", start=0.5, trace_id="b#0")
        tracer.start_span("migrate", parent=root_b, start=1.0,
                          trace_id="b#0", src="s1", dst="s3").finish(end=2.0)
        tracer.start_span("migrate", parent=root_a, start=1.5,
                          trace_id="a#0", src="s1", dst="s2").finish(end=2.5)
        tracer.start_span("lock-wait", parent=root_a, start=0.0,
                          trace_id="a#0").finish(end=4.0)
        tracer.start_span("lock-wait", parent=root_b, start=0.5,
                          trace_id="b#0").finish(end=3.0)
        root_a.finish(end=5.0, status="committed")
        root_b.finish(end=4.0, status="committed")

        journeys = {j.trace_id: j for j in reconstruct_journeys(tracer)}
        assert set(journeys) == {"a#0", "b#0"}
        spans_a = journeys["a#0"].spans
        spans_b = journeys["b#0"].spans
        assert all(s.trace_id == "a#0" for s in spans_a)
        assert all(s.trace_id == "b#0" for s in spans_b)
        assert {s.span_id for s in spans_a}.isdisjoint(
            {s.span_id for s in spans_b}
        )
        assert journeys["a#0"].hops[0].dst == "s2"
        assert journeys["b#0"].hops[0].dst == "s3"

    def test_untraced_spans_are_excluded(self):
        tracer = SpanTracer()
        tracer.start_span("experiment.run", start=0.0).finish(end=100.0)
        _journey(tracer, "a#0")
        journeys = reconstruct_journeys(tracer)
        assert len(journeys) == 1
        assert all(s.trace_id == "a#0" for s in journeys[0].spans)

    def test_accepts_hub_and_filters_by_trace(self):
        hub = ObservabilityHub()
        _journey(hub.tracer, "a#0")
        _journey(hub.tracer, "b#0")
        only_b = reconstruct_journeys(hub, trace_id="b#0")
        assert [j.trace_id for j in only_b] == ["b#0"]

    def test_partial_trace_without_root_still_reconstructs(self):
        tracer = SpanTracer()
        tracer.start_span("migrate", start=2.0, trace_id="a#0",
                          src="s1", dst="s2").finish(end=3.0)
        (journey,) = reconstruct_journeys(tracer)
        assert journey.root.name == "migrate"
        assert journey.path.travel_ms == pytest.approx(1.0)

    def test_rejects_non_tracer_source(self):
        with pytest.raises(TypeError):
            reconstruct_journeys(object())


class TestCriticalPath:
    def test_sums_are_exact(self):
        tracer = SpanTracer()
        _journey(tracer, "a#0", fail_first_claim=True)
        (journey,) = reconstruct_journeys(tracer)
        path = journey.path
        assert isinstance(path, CriticalPath)
        assert path.travel_ms == pytest.approx(2.0)
        assert path.park_ms == pytest.approx(2.0)
        assert path.retry_ms == pytest.approx(1.0)
        assert path.alt_ms == pytest.approx(10.0)
        assert path.service_ms == pytest.approx(
            path.alt_ms - path.travel_ms - path.park_ms - path.retry_ms
        )
        assert path.commit_ms == pytest.approx(3.0)
        assert path.att_ms == pytest.approx(14.0)
        assert path.tail_ms == pytest.approx(
            path.att_ms - path.alt_ms - path.commit_ms
        )

    def test_identities_hold(self):
        tracer = SpanTracer()
        _journey(tracer, "a#0")
        path = critical_path(reconstruct_journeys(tracer)[0])
        assert (path.travel_ms + path.park_ms + path.retry_ms
                + path.service_ms) == pytest.approx(path.alt_ms)
        assert (path.alt_ms + path.commit_ms
                + path.tail_ms) == pytest.approx(path.att_ms)

    def test_names_how_the_committed_claim_ran(self):
        tracer = SpanTracer()
        _journey(tracer, "a#0")
        _journey(tracer, "b#0", offset=20.0, path="visit")
        paths = [j.path for j in reconstruct_journeys(tracer)]
        assert [p.claim for p in paths] == ["round", "visit"]
        text = format_journey_report(reconstruct_journeys(tracer))
        assert "claim" in text and "visit" in text

    def test_dominant_component(self):
        tracer = SpanTracer()
        _journey(tracer, "a#0")
        (journey,) = reconstruct_journeys(tracer)
        assert journey.path.dominant == "service"

    def test_as_dict_round_trip(self):
        tracer = SpanTracer()
        _journey(tracer, "a#0")
        data = reconstruct_journeys(tracer)[0].path.as_dict()
        assert set(data) == {
            "travel_ms", "park_ms", "retry_ms", "service_ms",
            "alt_ms", "commit_ms", "tail_ms", "att_ms",
        }
        assert all(isinstance(v, float) for v in data.values())

    def test_unfinished_root_measures_recorded_portion(self):
        tracer = SpanTracer()
        root = tracer.start_span("request", start=0.0, trace_id="a#0")
        tracer.start_span("migrate", parent=root, start=1.0,
                          trace_id="a#0", src="s1", dst="s2").finish(end=4.0)
        (journey,) = reconstruct_journeys(tracer)
        path = journey.path
        assert not journey.complete
        assert path.att_ms == pytest.approx(4.0)
        assert not math.isnan(path.alt_ms)


class TestReport:
    def test_renders_rows_and_mean(self):
        tracer = SpanTracer()
        _journey(tracer, "a#0")
        _journey(tracer, "b#0", offset=20.0)
        text = format_journey_report(reconstruct_journeys(tracer))
        assert "a#0" in text and "b#0" in text
        assert "mean/2" in text
        assert "dominant" in text

    def test_empty(self):
        assert "no journeys" in format_journey_report([])
