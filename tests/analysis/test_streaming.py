"""Streaming accounting: reservoir parity, online audit, sweeps.

The streaming data plane must be an *accounting* change only: a
streaming run simulates the exact same events as its full-record twin,
so every exact metric (ALT/ATT means, PRK, throughput, counts) must be
byte-equal, the P² quantiles must land within their documented error
bound, the checker fed at every apply must give the stored twin's
verdicts, and the incremental chain digests must equal a replay of the
stored histories.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.consistency import ChainDigest, audit, commit_token
from repro.analysis.stats import P2Quantile, Welford
from repro.errors import ProtocolError, ReplicationError
from repro.experiments import runner
from repro.experiments.runner import (
    RunConfig, repeat_configs, result_fingerprint, run_once,
)
from repro.experiments.scale import ScaleVariant, scale_config

BASE = RunConfig(
    n_replicas=5, seed=13, mean_interarrival=30.0,
    requests_per_client=40, n_keys=8, key_skew=0.9,
)


@pytest.fixture(scope="module")
def twin_runs():
    """One config run both ways: full-record and streaming."""
    batch = run_once(BASE)
    streaming = run_once(BASE.with_(streaming=True))
    return batch, streaming


class TestWelford:
    def test_matches_numpy(self):
        rng = np.random.default_rng(3)
        xs = rng.lognormal(1.0, 0.7, size=5000)
        w = Welford()
        for x in xs:
            w.observe(float(x))
        assert w.count == len(xs)
        assert w.result() == pytest.approx(float(np.mean(xs)), rel=1e-12)
        assert w.variance == pytest.approx(
            float(np.var(xs, ddof=1)), rel=1e-9
        )
        assert (w.minimum, w.maximum) == (float(xs.min()), float(xs.max()))

    def test_empty_is_nan(self):
        assert math.isnan(Welford().result())


class TestP2Quantile:
    def test_exact_below_six_observations(self):
        est = P2Quantile(0.99)
        xs = [5.0, 1.0, 9.0, 3.0]
        for x in xs:
            est.observe(x)
        assert est.result() == pytest.approx(np.percentile(xs, 99))

    @pytest.mark.parametrize("q", [0.5, 0.9, 0.99])
    def test_within_documented_bound_on_latency_shapes(self, q):
        # Documented contract: ≤ ~5% relative error on latency-like
        # (exponential / lognormal) distributions.
        rng = np.random.default_rng(17)
        for xs in (
            rng.exponential(30.0, size=50_000),
            rng.lognormal(3.0, 0.5, size=50_000),
        ):
            est = P2Quantile(q)
            for x in xs:
                est.observe(float(x))
            exact = float(np.percentile(xs, q * 100.0))
            assert est.result() == pytest.approx(exact, rel=0.05)

    def test_quantile_ordering(self):
        rng = np.random.default_rng(23)
        xs = rng.exponential(10.0, size=20_000)
        p50, p99 = P2Quantile(0.5), P2Quantile(0.99)
        for x in xs:
            p50.observe(float(x))
            p99.observe(float(x))
        assert p50.result() < p99.result()


class TestStreamingBatchParity:
    def test_exact_metrics_agree(self, twin_runs):
        batch, streaming = twin_runs
        assert streaming.committed == batch.committed
        assert streaming.failed == batch.failed
        assert streaming.open == batch.open
        assert streaming.alt == pytest.approx(batch.alt, rel=1e-12)
        assert streaming.att == pytest.approx(batch.att, rel=1e-12)
        assert streaming.throughput == pytest.approx(
            batch.throughput, rel=1e-12
        )
        assert streaming.arrival_rate == pytest.approx(
            batch.arrival_rate, rel=1e-12
        )
        assert set(streaming.prk) == set(batch.prk)
        for k, fraction in batch.prk.items():
            assert streaming.prk[k] == pytest.approx(fraction, rel=1e-12)

    def test_quantiles_within_bound(self, twin_runs):
        # The ~5% P² bound holds for long streams (pinned above on 50k
        # samples); this short 200-commit run only gets the small-n
        # bound — still tight enough to catch a broken estimator.
        batch, streaming = twin_runs
        assert streaming.att_p50 == pytest.approx(batch.att_p50, rel=0.15)
        assert streaming.att_p99 == pytest.approx(batch.att_p99, rel=0.15)

    def test_streaming_run_keeps_no_records(self, twin_runs):
        _, streaming = twin_runs
        assert streaming.records == []
        assert streaming.commit_slots == ()
        assert len(streaming.chain_digests) == BASE.n_replicas

    def test_serial_vs_pool_fingerprints_identical(self):
        # Pool workers are fresh interpreters whose request-id counter
        # starts over; the id-base normalisation inside ChainDigest must
        # make the streaming fingerprint (which folds the digests)
        # process-independent.
        from repro.experiments.parallel import ParallelRunner

        config = BASE.with_(streaming=True)
        serial = run_once(config)
        with ParallelRunner(jobs=2) as runner:
            pooled = runner.run_one(config)
        assert result_fingerprint(pooled) == result_fingerprint(serial)
        assert pooled.chain_digests == serial.chain_digests

    def test_audits_agree_on_clean_run(self, twin_runs):
        batch, streaming = twin_runs
        full = audit(batch.deployment)
        # Writes to different keys are not ordered with each other, so
        # replicas may interleave the keys' histories differently.
        assert full.consistent and full.gapless
        _assert_same_verdicts(streaming.audit, full)


VERDICTS = (
    "final_state_equal", "divergence_free", "monotone", "complete",
    "identical_histories", "gapless", "consistent", "total_commits",
)


def _assert_same_verdicts(online, batch):
    for verdict in VERDICTS:
        assert getattr(online, verdict) == getattr(batch, verdict), verdict


class TestOnlineAudit:
    @pytest.mark.parametrize("protocol, gap", [("marp", 15.0), ("mcv", 160.0)])
    def test_a_skipped_version_is_not_divergence(self, protocol, gap):
        # Second repeat of X2's WAN points: a replica misses a committed
        # version, which leaves it incomplete, not divergent.
        config = repeat_configs(scale_config(
            protocol, ScaleVariant("wan", latency="wan"), gap, 20,
        ), 2)[1]
        streamed = run_once(config).audit
        stored = run_once(config.with_(streaming=False)).audit
        assert (streamed.divergence_free, streamed.complete,
                streamed.consistent) == (True, False, True)
        _assert_same_verdicts(streamed, stored)
        assert streamed.findings["complete"] == stored.findings["complete"]

    def test_a_streamed_deployment_is_not_audited_again(self):
        # Its histories were checked as they applied and never stored:
        # auditing the deployment afterwards would read empty chains as
        # consistent.
        result = run_once(RunConfig(
            n_replicas=5, seed=13, requests_per_client=10, streaming=True,
        ))
        assert result.audit.total_commits == result.committed == 50
        with pytest.raises(ReplicationError, match=(
            r"s1, s2, s3, s4, s5 streamed their histories.*RunResult\.audit"
        )):
            audit(result.deployment)

    def test_a_fault_free_run_leaves_no_open_slot(self, monkeypatch):
        checks = []

        def capture(*args):
            streamed = stream_histories(*args)
            checks.append(streamed[1])
            return streamed

        stream_histories = runner.stream_histories
        monkeypatch.setattr(runner, "stream_histories", capture)
        result = run_once(BASE.with_(streaming=True))
        [check] = checks
        assert result.audit.consistent and result.audit.complete
        assert check.total_commits == result.committed > 0
        assert check.open_slots() == 0

    def test_the_excluded_audit_streams_too(self):
        config = BASE.with_(audit_exclude=("s5",))
        streamed = run_once(config.with_(streaming=True))
        stored = run_once(config)
        _assert_same_verdicts(streamed.audit_excluded, stored.audit_excluded)


class TestChainDigestReplay:
    def test_incremental_equals_replay_of_stored_history(self, twin_runs):
        # The batch twin keeps full histories; replaying them through a
        # fresh ChainDigest — normalised to that run's own first request
        # id — must reproduce the streaming twin's in-run digests.
        batch, streaming = twin_runs
        incremental = dict(streaming.chain_digests)
        id_base = min(r.request_id for r in batch.records)
        for host in batch.deployment.hosts:
            replay = ChainDigest(host, id_base=id_base)
            for record in batch.deployment.server(host).history:
                replay.observe(record)
            assert replay.whole_digest() == incremental[host], host


#: Text the digest token must quote exactly as json.dumps does: non-ASCII,
#: astral and control characters, quotes and backslashes included.
_TEXT = st.text(
    alphabet=st.one_of(
        st.characters(), st.sampled_from('"\\\x00\x1f\x7f\u2028/'),
    ),
    max_size=12,
)


class TestCommitToken:
    @settings(max_examples=400, deadline=None)
    @given(
        key=_TEXT, version=st.integers(-2**70, 2**70),
        offset=st.integers(-2**40, 2**40), value=_TEXT, origin=_TEXT,
    )
    def test_token_is_the_json_dumps_token(
        self, key, version, offset, value, origin
    ):
        value_repr = repr(value)
        assert commit_token(key, version, offset, value_repr, origin) == (
            json.dumps(
                [key, version, offset, value_repr, origin],
                separators=(",", ":"),
            ).encode("utf-8")
        )

    def test_other_shapes_take_json_dumps(self):
        # bool is not int here, and a float is not quoted like a string
        assert commit_token("k", True, 1.5, "'v'", "s1") == (
            b'["k",true,1.5,"\'v\'","s1"]'
        )


class TestProtocolSweep:
    def _protocol(self):
        from repro.replication.deployment import Deployment
        from repro.replication.protocol import ReplicationProtocol

        deployment = Deployment(n_replicas=3, seed=2)
        return deployment, ReplicationProtocol(deployment, "primary-copy")

    def test_sweep_bounds_record_list(self):
        deployment, protocol = self._protocol()
        seen = []
        protocol.enable_streaming(seen.append, sweep_every=4)
        for index in range(20):
            protocol.submit_write("s1", "x", index)
            deployment.run()
        pending = protocol.finalize_streaming()
        assert pending == 0
        assert protocol.records == []
        assert protocol.swept == 20
        assert len(seen) == 20  # each terminal record exactly once
        assert len({r.request_id for r in seen}) == 20

    def test_sweep_every_validation(self):
        _, protocol = self._protocol()
        with pytest.raises(ReplicationError):
            protocol.enable_streaming(lambda r: None, sweep_every=0)


class TestStreamingRetiresAgents:
    """A MARP run lets go of each agent as it finishes, whether it
    streams its records or keeps them."""

    WRITES = 30

    def _marp(self, streaming):
        from repro.replication.protocol import MARP
        from repro.replication.deployment import Deployment

        deployment = Deployment(n_replicas=3, seed=7)
        marp = MARP(deployment)
        if streaming:
            marp.enable_streaming(lambda record: None, sweep_every=8)
        for index in range(self.WRITES):
            marp.submit_write(deployment.hosts[index % 3], "x", index)
        return deployment, marp

    def test_only_live_agents_are_held_and_hops_stay_exact(self):
        full_deployment, full = self._marp(streaming=False)
        deployment, marp = self._marp(streaming=True)
        for until in (60.0, 150.0, None):  # twice mid-flight, then drained
            full_deployment.run(until=until)
            deployment.run(until=until)
            marp.finalize_streaming()
            assert len(marp.agents) == marp.open_requests()
            assert not any(agent.disposed for agent in marp.agents)
            assert [a.agent_id for a in full.agents] == [
                a.agent_id for a in marp.agents
            ]
            assert marp.total_agent_hops() == full.total_agent_hops()
            if until == 60.0:
                assert 0 < len(marp.agents) < self.WRITES
        assert marp.agents == full.agents == [] and marp.swept == self.WRITES
        assert len(full.records) == self.WRITES


class TestHistoryLogStreaming:
    def test_stream_to_forwards_without_retaining(self):
        deployment, protocol = (
            TestProtocolSweep()._protocol()
        )
        seen = []
        deployment.server("s1").history.stream_to(seen.append)
        for index in range(5):
            protocol.submit_write("s1", "x", index)
            deployment.run()
        history = deployment.server("s1").history
        assert len(history) == 5
        assert list(history) == []  # nothing retained
        assert history.last() is not None
        assert [record.version for record in seen] == [1, 2, 3, 4, 5]

    def test_stream_to_after_append_rejected(self):
        deployment, protocol = TestProtocolSweep()._protocol()
        protocol.submit_write("s1", "x", 0)
        deployment.run()
        with pytest.raises(ProtocolError):
            deployment.server("s1").history.stream_to(lambda r: None)


class TestULRetention:
    def test_prune_drops_only_stale_entries(self):
        from repro.core.machines.identity import AgentId
        from repro.core.machines.structures import UpdatedList

        ul = UpdatedList(retention=100.0)
        old, fresh = AgentId("h", 1.0, 0), AgentId("h", 2.0, 0)
        ul.add(old, at=0.0)
        ul.add(fresh, at=950.0)
        ul.prune(now=1000.0)
        assert old not in ul and fresh in ul
        assert ul.pruned_total == 1

    def test_run_with_retention_stays_consistent(self):
        # A streaming run with 25 s of arrivals against the derived 15 s
        # window (1.5 x the 10 s grant_ttl): every replica prunes, the
        # online audit still holds and nothing is lost.
        result = run_once(BASE.with_(
            streaming=True, mean_interarrival=250.0, requests_per_client=100,
        ))
        assert result.audit.consistent
        assert result.committed == 100 * BASE.n_replicas
        for server in result.deployment.servers.values():
            assert server.machine.updated_list.pruned_total > 0
