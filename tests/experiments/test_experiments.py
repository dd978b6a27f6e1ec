"""Tests for the experiment harness (small, fast configurations)."""

import pytest

from repro.errors import ExperimentError
from repro.experiments.ablations import (
    run_batching_ablation,
    run_bulletin_ablation,
    run_itinerary_ablation,
    theorem3_bounds,
)
from repro.experiments.common import latency_sweep
from repro.experiments.fig2_alt import project_fig2
from repro.experiments.fig3_att import project_fig3
from repro.experiments.fig4_prk import run_fig4
from repro.experiments.runner import RunConfig, build_protocol, run_once, run_repeats
from repro.experiments.sweeps import sweep
from repro.experiments.table_comparison import run_comparison
from repro.experiments.throughput import run_throughput
from repro.replication.deployment import Deployment

FAST = dict(requests_per_client=5, mean_interarrival=60.0)


class TestRunner:
    def test_run_once_marp(self):
        result = run_once(RunConfig(n_replicas=3, seed=0, **FAST))
        assert result.protocol_name == "marp"
        assert result.committed == 15
        assert result.failed == 0
        assert result.alt > 0
        assert result.att >= result.alt
        assert result.audit.consistent
        assert result.agent_migrations > 0

    def test_run_once_baseline(self):
        result = run_once(
            RunConfig(protocol="mcv", n_replicas=3, seed=0, **FAST)
        )
        assert result.protocol_name == "mcv"
        assert result.committed == 15
        assert result.agent_migrations == 0

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ExperimentError):
            run_once(RunConfig(protocol="carrier-pigeon", **FAST))

    def test_unknown_latency_rejected(self):
        with pytest.raises(ExperimentError):
            run_once(RunConfig(latency="quantum", **FAST))

    def test_unknown_topology_rejected(self):
        with pytest.raises(ExperimentError):
            run_once(RunConfig(topology="donut", **FAST))

    def test_random_costs_topology(self):
        result = run_once(
            RunConfig(n_replicas=3, topology="random-costs", seed=1, **FAST)
        )
        assert result.committed == 15

    def test_wan_slower_than_lan(self):
        lan = run_once(RunConfig(n_replicas=3, seed=0, **FAST))
        wan = run_once(
            RunConfig(n_replicas=3, seed=0, latency="wan", **FAST)
        )
        assert wan.att > 2 * lan.att

    def test_with_copies(self):
        config = RunConfig(seed=1)
        changed = config.with_(seed=9, n_replicas=4)
        assert changed.seed == 9
        assert changed.n_replicas == 4
        assert config.seed == 1  # original untouched

    def test_run_repeats_distinct_seeds(self):
        results = run_repeats(RunConfig(n_replicas=3, **FAST), repeats=2)
        assert len(results) == 2
        assert results[0].config.seed != results[1].config.seed

    def test_run_repeats_validation(self):
        with pytest.raises(ExperimentError):
            run_repeats(RunConfig(), repeats=0)

    def test_build_protocol_passes_kwargs(self):
        dep = Deployment(n_replicas=3)
        protocol = build_protocol(
            dep,
            RunConfig(protocol="primary-copy",
                      protocol_kwargs={"primary": "s2"}),
        )
        assert protocol.row.settings["primary"] == "s2"


class TestSweeps:
    def test_sweep_runs_each_value(self):
        base = RunConfig(n_replicas=3, requests_per_client=4)
        points = sweep(base, "mean_interarrival", [40.0, 120.0], repeats=1)
        assert [p.x for p in points] == [40.0, 120.0]
        assert all(len(p.results) == 1 for p in points)

    def test_point_metric_aggregation(self):
        base = RunConfig(n_replicas=3, requests_per_client=4)
        points = sweep(base, "mean_interarrival", [80.0], repeats=2)
        summary = points[0].metric(lambda r: float(r.committed))
        assert summary.n == 2
        assert summary.mean == 12.0

    def test_all_consistent(self):
        base = RunConfig(n_replicas=3, requests_per_client=4)
        points = sweep(base, "mean_interarrival", [80.0], repeats=1)
        assert points[0].all_consistent()


class TestFigures:
    @pytest.fixture(scope="class")
    def small_sweep(self):
        return latency_sweep(
            server_counts=(3, 4, 5),
            interarrivals=(30.0, 120.0),
            requests_per_client=6,
            repeats=1,
        )

    def test_fig2_shape(self, small_sweep):
        figure = project_fig2(small_sweep)
        for servers in ("3 servers", "4 servers", "5 servers"):
            series = figure.series[servers]
            assert len(series) == 2
            assert series[0] > series[1]  # contention raises ALT
        # at high contention, more servers means a costlier lock
        assert figure.series["5 servers"][0] > figure.series["3 servers"][0]
        assert figure.all_consistent
        assert "Figure 2" in figure.text

    def test_fig3_dominates_fig2(self, small_sweep):
        figure = project_fig3(small_sweep)
        assert figure.all_consistent
        alt_figure = project_fig2(small_sweep)
        for servers in ("3 servers", "4 servers", "5 servers"):
            alt_series = alt_figure.series[servers]
            att_series = figure.series[servers]
            # ATT is ALT plus the update round, and falls with the load
            assert all(a <= t for a, t in zip(alt_series, att_series))
            assert att_series[0] > att_series[-1]
        assert figure.series["5 servers"][-1] > figure.series["3 servers"][-1]

    def test_fig4_mass_shifts_with_rate(self):
        figure = run_fig4(
            interarrivals=(15.0, 150.0), requests_per_client=8, repeats=1,
        )
        assert figure.all_consistent
        k3, k5 = figure.series["K=3"], figure.series["K=5"]
        assert k5[0] > k5[1]  # high rate -> more full tours
        assert k3[1] > k3[0]  # low rate -> more minimum tours
        # the paper's reading: under contention most agents visit all 5
        # servers, at low rates most stop at 3 = (N+1)/2
        assert k5[0] > 50.0 and k5[0] > k3[0]
        assert k3[1] > 50.0 and k3[1] > k5[1]
        for idx in range(2):
            total = sum(figure.series[f"K={k}"][idx] for k in (3, 4, 5))
            assert total == pytest.approx(100.0)


class TestComparisonAndTheorems:
    def test_comparison_rows(self):
        table = run_comparison(
            protocols=("marp", "primary-copy"),
            mean_interarrival=80.0,
            requests_per_client=4,
            repeats=1,
        )
        assert len(table.rows) == 2
        marp_row = table.row_for("marp")
        assert marp_row.agent_migrations > 0
        pc_row = table.row_for("primary-copy")
        assert pc_row.agent_migrations == 0
        assert "protocol" in table.text

    def test_contention_favours_marp(self):
        """T1, the paper's §1/§5 claim: under write contention the voting
        protocols burn retry rounds; MARP needs less than half their
        control messages and finishes sooner."""
        table = run_comparison(
            protocols=("marp", "mcv", "weighted-voting"),
            mean_interarrival=25.0, requests_per_client=8, repeats=1,
        )
        marp, mcv, wv = (
            table.row_for(p) for p in ("marp", "mcv", "weighted-voting")
        )
        for row in (marp, mcv, wv):
            assert row.committed == 40.0
            assert row.consistent
        assert marp.control_messages < mcv.control_messages / 2
        assert marp.control_messages < wv.control_messages / 2
        assert marp.att < mcv.att
        assert marp.att < wv.att
        assert marp.agent_migrations > 0
        assert mcv.agent_migrations == 0

    def test_wan_slows_everyone_and_marp_keeps_the_smaller_bill(self):
        """T2: the WAN profile is several times slower for every
        protocol, and MARP's message bill stays below the voting one."""
        protocols = ("marp", "mcv", "weighted-voting")
        table = run_comparison(
            protocols=protocols, latencies=("lan", "wan"),
            mean_interarrival=400.0, requests_per_client=4, repeats=1,
        )
        for protocol in protocols:
            lan = table.row_for(protocol, "lan")
            wan = table.row_for(protocol, "wan")
            assert lan.consistent and wan.consistent
            assert wan.att > 5 * lan.att
        assert (
            table.row_for("marp", "wan").control_messages
            < table.row_for("mcv", "wan").control_messages
        )

    def test_row_for_missing_raises(self):
        table = run_comparison(
            protocols=("marp",), requests_per_client=3, repeats=1,
        )
        with pytest.raises(KeyError):
            table.row_for("mcv")

    def test_theorem3_bounds_hold(self):
        for n in (3, 5):
            report = theorem3_bounds(
                n_replicas=n, requests_per_client=6, repeats=1,
                mean_interarrival=40.0,
            )
            assert report.holds
            assert report.lower_bound == n // 2 + 1
            assert report.upper_bound == n
            assert report.commits == 6 * n
            assert "HOLDS" in report.text
        # at negligible load the winner stops at exactly (N+1)/2 visits
        idle = theorem3_bounds(
            n_replicas=5, requests_per_client=3, repeats=1,
            mean_interarrival=500.0,
        )
        assert idle.observed_min == 3


class TestAblationsAndThroughput:
    def test_every_itinerary_commits_consistently(self):
        table = run_itinerary_ablation(requests_per_client=4, repeats=1)
        for strategy in (
            "cost-sorted", "initial-cost-order", "static-order",
            "random-order",
        ):
            assert table.column(strategy, "consistent")
            assert table.column(strategy, "committed") == 20.0

    def test_bulletin_sharing_is_optional_for_consistency(self):
        table = run_bulletin_ablation(requests_per_client=4, repeats=1)
        assert table.column(True, "consistent")
        assert table.column(False, "consistent")

    def test_batching_amortises_migrations(self):
        table = run_batching_ablation(
            batch_sizes=(1, 4), requests_per_client=8, repeats=1,
        )
        assert table.column(1, "consistent")
        assert table.column(4, "consistent")
        assert table.column(4, "agent hops") < table.column(1, "agent hops")

    def test_throughput_saturates_at_the_lock_handoff_rate(self):
        """X1: the two highest offered loads achieve the same
        throughput; the lightest one is served almost in full."""
        table = run_throughput(
            interarrivals=(10.0, 30.0, 160.0), requests_per_client=10,
            repeats=1,
        )
        offered, achieved = table.offered(), table.achieved()
        assert achieved[0] < offered[0] * 0.5
        assert achieved[0] == pytest.approx(achieved[1], rel=0.25)
        assert achieved[-1] > offered[-1] * 0.5
        assert all(row[-1] for row in table.rows)
