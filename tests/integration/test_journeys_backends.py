"""Acceptance: cross-hop journeys are linked, decomposable, and
identically structured in the DES and live backends.

The ISSUE 6 contract: a seeded 3-replica run must produce, for every
update, one whole-journey trace (arrive → claim → migrate × k →
commit) whose critical-path decomposition sums to the *measured* ALT
for that update, and the journey structure (span vocabulary, root,
per-agent isolation) must be the same whichever backend recorded it.
"""

import pytest

from repro.experiments.runner import RunConfig, run_once
from repro.obs.hub import ObservabilityHub, set_hub
from repro.obs.journeys import reconstruct_journeys
from repro.runtime import LiveCluster

#: span names an update agent's journey may contain, in either backend.
JOURNEY_VOCABULARY = {"request", "lock-wait", "migrate", "park", "claim"}


def _des_run():
    """A contended seeded DES run under a process-wide hub."""
    hub = ObservabilityHub()
    previous = set_hub(hub)
    try:
        result = run_once(RunConfig(
            protocol="marp",
            n_replicas=3,
            mean_interarrival=25.0,
            requests_per_client=4,
            seed=5,
        ))
    finally:
        set_hub(previous)
    return hub, result


def _live_run(writes=9):
    """A contended seeded live-thread run under a process-wide hub."""
    hub = ObservabilityHub()
    previous = set_hub(hub)
    try:
        with LiveCluster(n_replicas=3, backend="thread", seed=7) as cluster:
            for index in range(writes):
                cluster.submit_write(
                    cluster.hosts[index % len(cluster.hosts)], "x", index
                )
            records = cluster.wait_for(writes, timeout=60.0)
        audit = cluster.audit()
    finally:
        set_hub(previous)
    assert audit.consistent
    return hub, records


@pytest.fixture(scope="module")
def des():
    return _des_run()


@pytest.fixture(scope="module")
def live():
    return _live_run()


def _assert_per_agent_isolation(journeys):
    """Interleaved agents reassemble per-agent with no cross-linking."""
    seen_ids = set()
    for journey in journeys:
        ids = {span.span_id for span in journey.spans}
        assert ids.isdisjoint(seen_ids)
        seen_ids |= ids
        assert all(span.trace_id == journey.trace_id
                   for span in journey.spans)
        roots = [s for s in journey.spans if s.name == "request"]
        assert len(roots) == 1
        # every non-root span hangs off the journey's own root
        for span in journey.spans:
            if span is not journey.root:
                assert span.parent_id == journey.root.span_id


class TestDesBackend:
    def test_one_linked_journey_per_update(self, des):
        hub, result = des
        journeys = reconstruct_journeys(hub)
        assert len(journeys) == len(result.records) > 1
        assert all(j.backend == "des" for j in journeys)
        assert all(j.complete for j in journeys)
        assert not hub.tracer.open_spans()
        _assert_per_agent_isolation(journeys)

    def test_journey_shape(self, des):
        hub, result = des
        for journey in reconstruct_journeys(hub):
            names = {span.name for span in journey.spans}
            assert names <= JOURNEY_VOCABULARY
            assert {"request", "lock-wait", "claim"} <= names
            committed = [s for s in journey.named("claim")
                         if s.status == "committed"]
            assert len(committed) == (
                1 if journey.status == "committed" else 0
            )
            for claim in journey.named("claim"):
                assert claim.attrs["path"] in ("round", "visit", "behind")

    def test_decomposition_matches_measured_alt_att(self, des):
        hub, result = des
        records = {r.agent_id: r for r in result.records}
        journeys = reconstruct_journeys(hub)
        assert set(records) == {j.trace_id for j in journeys}
        for journey in journeys:
            record = records[journey.trace_id]
            path = journey.path
            assert (path.travel_ms + path.park_ms + path.retry_ms
                    + path.service_ms) == pytest.approx(path.alt_ms)
            assert (path.alt_ms + path.commit_ms
                    + path.tail_ms) == pytest.approx(path.att_ms)
            if record.status == "committed":
                assert path.alt_ms == pytest.approx(
                    record.lock_time, abs=1e-6
                )
                assert path.att_ms == pytest.approx(
                    record.total_time, abs=1e-6
                )

    def test_contention_produced_cross_hop_journeys(self, des):
        hub, _ = des
        journeys = reconstruct_journeys(hub)
        assert any(len(j.hops) >= 1 for j in journeys)
        for journey in journeys:
            for hop in journey.hops:
                assert hop.src != hop.dst


class TestLiveBackend:
    def test_one_linked_journey_per_update(self, live):
        hub, records = live
        journeys = reconstruct_journeys(hub)
        assert len(journeys) == len(records) > 1
        assert all(j.backend == "live" for j in journeys)
        assert all(j.complete for j in journeys)
        assert not hub.tracer.open_spans()
        _assert_per_agent_isolation(journeys)

    def test_spans_link_across_migration_hops(self, live):
        """Spans recorded by *different host threads* join one journey."""
        hub, _ = live
        journeys = reconstruct_journeys(hub)
        multi_hop = [j for j in journeys if len(j.hops) >= 1]
        assert multi_hop, "contended live run produced no migrations"
        for journey in multi_hop:
            # the itinerary is a connected chain of hops
            legs = journey.hops
            for previous, current in zip(legs, legs[1:]):
                assert previous.dst == current.src
            # ... ending (or pausing) away from home at least once
            assert any(hop.dst != journey.root.attrs["host"]
                       for hop in legs)

    def test_decomposition_matches_measured_alt_att(self, live):
        hub, records = live
        journeys = {j.trace_id: j for j in reconstruct_journeys(hub)}
        for record in records:
            journey = journeys[record["agent_id"]]
            path = journey.path
            assert (path.travel_ms + path.park_ms + path.retry_ms
                    + path.service_ms) == pytest.approx(path.alt_ms)
            assert (path.alt_ms + path.commit_ms
                    + path.tail_ms) == pytest.approx(path.att_ms)
            if record["status"] == "committed":
                measured_alt = (
                    record["lock_acquired_at"] - record["dispatched_at"]
                )
                measured_att = (
                    record["completed_at"] - record["dispatched_at"]
                )
                assert path.alt_ms == pytest.approx(
                    measured_alt, abs=1e-3
                )
                assert path.att_ms == pytest.approx(
                    measured_att, abs=1e-3
                )


class TestBackendParity:
    def test_identical_journey_structure(self, des, live):
        """Both backends produce the same journey shape: same span
        vocabulary, one request root, one committed claim, linked
        migrate hops — only the clock differs."""
        des_journeys = reconstruct_journeys(des[0])
        live_journeys = reconstruct_journeys(live[0])

        def shape(journeys):
            vocabulary = set()
            for journey in journeys:
                vocabulary |= {span.name for span in journey.spans}
            return vocabulary

        des_vocab = shape(des_journeys)
        live_vocab = shape(live_journeys)
        assert des_vocab <= JOURNEY_VOCABULARY
        assert live_vocab <= JOURNEY_VOCABULARY
        assert {"request", "lock-wait", "migrate", "claim"} <= des_vocab
        assert {"request", "lock-wait", "migrate", "claim"} <= live_vocab
        for journeys in (des_journeys, live_journeys):
            for journey in journeys:
                if journey.status != "committed":
                    continue
                committed = [s for s in journey.named("claim")
                             if s.status == "committed"]
                assert len(committed) == 1

    #: what one interpreter emits for every backend: replica-side and
    #: agent-side metric families alike
    SHARED_FAMILIES = (
        "replica_grants_total", "replica_commits_applied_total",
        "replica_ll_length",
        "marp_requests_total", "marp_claims_total", "marp_migrations_total",
        "marp_alt_ms", "marp_att_ms", "marp_visits_to_lock",
    )

    def test_same_metric_families_from_both_backends(self, des, live):
        des_hub, des_result = des
        live_hub, live_records = live
        for hub in (des_hub, live_hub):
            for name in self.SHARED_FAMILIES:
                assert name in hub.registry, name
        committed = {
            des_hub: des_result.committed,
            live_hub: sum(
                1 for r in live_records if r["status"] == "committed"
            ),
        }
        assert des_hub.registry.get("marp_requests_total").value(
            status="committed"
        ) == des_result.committed
        # (live hosts bump that one series from three threads; the
        # replica families below are labelled by host, one writer each)
        for hub, writes in committed.items():
            registry = hub.registry
            # every committed write is applied once per replica, and took
            # at least a majority of grants (ACKs or grants on visits)
            assert registry.get(
                "replica_commits_applied_total"
            ).total() == 3 * writes
            grants = registry.get("replica_grants_total")
            assert sum(
                grants.value(host=host, outcome=outcome)
                for host in hosts_of(hub) for outcome in ("ack", "visit")
            ) >= 2 * writes


def hosts_of(hub):
    return {
        sample.labels["host"]
        for sample in hub.registry.get("replica_ll_length").samples()
    }
