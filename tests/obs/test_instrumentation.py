"""End-to-end instrumentation tests over real MARP runs.

The acceptance bar from the observability issue: an instrumented run
must emit at least 6 distinct metric names plus migration / lock-wait /
claim spans, and the span timings must reconcile with the run's ALT and
ATT numbers computed independently by :mod:`repro.analysis.metrics`.
"""

import pytest

from repro.replication.protocol import MARP
from repro.experiments.runner import RunConfig, run_once
from repro.obs import hub as hub_mod
from repro.obs.hub import ObservabilityHub, set_hub
from repro.replication.deployment import Deployment


@pytest.fixture(autouse=True)
def isolate_global_hub():
    previous = hub_mod._active_hub
    set_hub(None)
    yield
    set_hub(previous)


@pytest.fixture()
def instrumented_run():
    hub = ObservabilityHub()
    set_hub(hub)
    result = run_once(RunConfig(
        protocol="marp",
        n_replicas=3,
        mean_interarrival=20.0,
        requests_per_client=4,
        seed=1,
    ))
    return hub, result


class TestInstrumentedRun:
    def test_emits_at_least_six_metric_names(self, instrumented_run):
        hub, _ = instrumented_run
        assert len(hub.registry.names()) >= 6

    def test_core_metric_families_present(self, instrumented_run):
        hub, result = instrumented_run
        registry = hub.registry
        for name in (
            "sim_events_total", "marp_requests_total", "marp_claims_total",
            "marp_migrations_total", "marp_alt_ms", "marp_att_ms",
            "net_messages_total", "replica_ll_length",
            "replica_grants_total", "experiment_runs_total",
        ):
            assert name in registry, name
        assert registry.get("sim_events_total").total() > 0
        assert (
            registry.get("marp_requests_total").value(status="committed")
            == result.committed
        )

    def test_claims_count_by_path(self, instrumented_run):
        """Every claim is labelled with how it ran, and each committed
        write committed by exactly one claim, whichever path it took."""
        hub, result = instrumented_run
        claims = hub.registry.get("marp_claims_total")
        assert {s.labels["path"] for s in claims.samples()} <= {
            "round", "visit",
        }
        assert sum(
            s.value for s in claims.samples()
            if s.labels["outcome"] == "committed"
        ) == result.committed
        for span in hub.tracer.spans_named("claim"):
            assert span.attrs["path"] in ("round", "visit")

    def test_span_families_present(self, instrumented_run):
        hub, result = instrumented_run
        tracer = hub.tracer
        requests = tracer.spans_named("request")
        assert len(requests) == len(result.records)
        assert tracer.spans_named("migrate")
        assert tracer.spans_named("lock-wait")
        assert tracer.spans_named("claim")
        assert not tracer.open_spans()

    def test_migration_spans_link_to_requests(self, instrumented_run):
        hub, _ = instrumented_run
        request_ids = {
            span.span_id for span in hub.tracer.spans_named("request")
        }
        for name in ("migrate", "lock-wait", "claim"):
            for span in hub.tracer.spans_named(name):
                assert span.parent_id in request_ids, name

    def test_att_reconciles_with_request_spans(self, instrumented_run):
        hub, result = instrumented_run
        committed = [
            span for span in hub.tracer.spans_named("request")
            if span.status == "committed"
        ]
        span_att = sum(s.duration for s in committed) / len(committed)
        assert span_att == pytest.approx(result.att, rel=1e-9)

    def test_alt_histogram_reconciles(self, instrumented_run):
        hub, result = instrumented_run
        assert hub.registry.get("marp_alt_ms").mean() == pytest.approx(
            result.alt, rel=1e-9
        )
        assert hub.registry.get("marp_att_ms").mean(
            status="committed"
        ) == pytest.approx(result.att, rel=1e-9)

    def test_network_counters_match_stats(self, instrumented_run):
        hub, result = instrumented_run
        net_total = hub.registry.get("net_messages_total").total()
        assert net_total == result.total_messages

    def test_events_processed_counted(self, instrumented_run):
        hub, result = instrumented_run
        env_steps = result.deployment.env.events_processed
        assert env_steps > 0
        assert (
            hub.registry.get("sim_events_total").total() == env_steps
        )

    def test_experiment_summary_event(self, instrumented_run):
        hub, result = instrumented_run
        summaries = hub.tracer.events_named("experiment.summary")
        assert len(summaries) == 1
        assert summaries[0].attrs["committed"] == result.committed
        run_spans = hub.tracer.spans_named("experiment.run")
        assert summaries[0].span_id == run_spans[0].span_id


class TestTracingRegression:
    """`enable_tracing()` must be bit-compatible with the seed repo."""

    WRITES = [("s1", "x", 1), ("s2", "x", 2), ("s3", "x", 3)]

    def run_traced(self, hub):
        deployment = Deployment(
            n_replicas=3, seed=7,
            obs=hub if hub is not None else ObservabilityHub(enabled=False),
        )
        trace = deployment.enable_tracing()
        marp = MARP(deployment)
        for host, key, value in self.WRITES:
            marp.submit_write(host, key, value)
        deployment.run(until=100_000)
        return trace

    @staticmethod
    def normalized(trace):
        # request ids come from a process-global counter, so two
        # sequential runs never share them; map to first-seen order
        ids = {}
        rows = []
        for e in trace.events:
            if e.request_id is not None and e.request_id not in ids:
                ids[e.request_id] = len(ids)
            rows.append((
                e.time, e.kind, e.host, e.agent,
                ids.get(e.request_id), e.detail,
            ))
        return rows

    def test_trace_identical_with_and_without_hub(self):
        baseline = self.run_traced(None)
        observed = self.run_traced(ObservabilityHub())
        assert len(baseline) == len(observed)
        assert self.normalized(baseline) == self.normalized(observed)

    def test_visit_lines_carry_the_rank_as_text(self):
        """The visit note's text is formatted by whoever records it
        (``effects.Text``), and the rank behind it comes from the
        Locking List's arrival index, not a scan: the recorded lines
        are those of ac0e213, strings included, but for the times after
        the first three. Those moved when every UPDATE began to name its
        keys (a few bytes more per claim round), again, each a few
        hundred nanoseconds earlier, when suitcases stopped carrying a
        finished-set bitset per view, and again, after the sixth, when
        the three writers began to take and give back grants on their
        visits (their RELEASEs join the traffic)."""
        trace = self.run_traced(None)
        assert all(type(e.detail) is str for e in trace.events)
        visits = [
            (round(e.time, 6), e.host, e.agent, e.detail)
            for e in trace.events if e.kind == "visit"
        ]
        assert visits == [
            (2.0, "s1", "s1@0#0", "rank 0 of 1"),
            (2.0, "s2", "s2@0#0", "rank 0 of 1"),
            (2.0, "s3", "s3@0#0", "rank 0 of 1"),
            (5.2567, "s1", "s2@0#0", "rank 1 of 2"),
            (6.773114, "s2", "s1@0#0", "rank 1 of 2"),
            (6.885313, "s1", "s3@0#0", "rank 2 of 3"),
            (9.975888, "s3", "s2@0#0", "rank 1 of 2"),
            (10.673033, "s2", "s3@0#0", "rank 2 of 3"),
            (11.102324, "s3", "s1@0#0", "rank 2 of 3"),
            (17.615092, "s3", "s2@0#0", "rank 1 of 2"),
            (18.733758, "s2", "s3@0#0", "rank 1 of 2"),
            (25.403656, "s2", "s3@0#0", "rank 0 of 1"),
        ]

    def test_trace_events_join_hub_stream(self):
        hub = ObservabilityHub()
        trace = self.run_traced(hub)
        protocol_events = [
            event for event in hub.tracer.events
            if event.name.startswith("protocol.")
        ]
        assert len(protocol_events) == len(trace)
        assert trace.counts()["commit"] > 0
