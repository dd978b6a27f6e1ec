"""Tests for the experiment harness (small, fast configurations)."""

import pytest

from repro.errors import ExperimentError
from repro.experiments import claims
from repro.experiments.parallel import get_default_runner
from repro.experiments.runner import RunConfig, build_protocol, run_once, run_repeats
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


#: a grid runner's run settings (its grid is each test's own)
ONCE = dict(repeats=1, seed=0)


def _grid(configs, repeats):
    return get_default_runner().run_repeats_many(configs, repeats)


class TestSweeps:
    def test_sweep_runs_each_value(self):
        base = RunConfig(n_replicas=3, requests_per_client=4)
        grouped = _grid(
            [base.with_(mean_interarrival=gap) for gap in (40.0, 120.0)], 1
        )
        assert [results[0].config.mean_interarrival
                for results in grouped] == [40.0, 120.0]
        assert all(len(results) == 1 for results in grouped)

    def test_point_metric_aggregation(self):
        base = RunConfig(n_replicas=3, requests_per_client=4)
        (results,) = _grid([base.with_(mean_interarrival=80.0)], 2)
        assert len(results) == 2
        assert claims.aggregate(results)["committed"] == 12.0

    def test_all_consistent(self):
        base = RunConfig(n_replicas=3, requests_per_client=4)
        (results,) = _grid([base.with_(mean_interarrival=80.0)], 1)
        assert claims.aggregate(results)["consistent"]


class TestFigures:
    GRID = dict(server_counts=(3, 4, 5), gaps=(30.0, 120.0), requests=6)

    @pytest.fixture(scope="class")
    def small_sweep(self):
        return {
            metric: claims.figure(title=f"Figure {number}", metric=metric,
                           **self.GRID, **ONCE)
            for number, metric in ((2, "alt"), (3, "att"))
        }

    def test_fig2_shape(self, small_sweep):
        figure = small_sweep["alt"]
        for servers in ("3 servers", "4 servers", "5 servers"):
            series = figure.column(servers)
            assert len(series) == 2
            assert series[0] > series[1]  # contention raises ALT
        # at high contention, more servers means a costlier lock
        assert figure.column("5 servers")[0] > figure.column("3 servers")[0]
        assert figure.note == "consistency audit: all runs consistent"
        assert "Figure 2" in figure.text
        assert claims.CLAIMS["F2"].verdict(figure).holds

    def test_fig3_dominates_fig2(self, small_sweep):
        figure = small_sweep["att"]
        assert figure.note == "consistency audit: all runs consistent"
        alt_figure = small_sweep["alt"]
        for servers in ("3 servers", "4 servers", "5 servers"):
            alt_series = alt_figure.column(servers)
            att_series = figure.column(servers)
            # ATT is ALT plus the update round, and falls with the load
            assert all(a <= t for a, t in zip(alt_series, att_series))
            assert att_series[0] > att_series[-1]
        assert figure.column("5 servers")[-1] > figure.column("3 servers")[-1]

    def test_fig4_mass_shifts_with_rate(self):
        figure = claims.figure(
            title="Figure 4", metric="prk %", server_counts=(5,),
            gaps=(15.0, 150.0), requests=8, **ONCE,
        )
        assert figure.note == "consistency audit: all runs consistent"
        k3, k5 = figure.column("K=3"), figure.column("K=5")
        assert k5[0] > k5[1]  # high rate -> more full tours
        assert k3[1] > k3[0]  # low rate -> more minimum tours
        # the paper's reading: under contention most agents visit all 5
        # servers, at low rates most stop at 3 = (N+1)/2
        assert k5[0] > 50.0 and k5[0] > k3[0]
        assert k3[1] > 50.0 and k3[1] > k5[1]
        for idx in range(2):
            total = sum(figure.column(f"K={k}")[idx] for k in (3, 4, 5))
            assert total == pytest.approx(100.0)
        assert claims.CLAIMS["F4"].verdict(figure).holds


def _compare(**grid):
    return claims.comparison(title="T", **grid, **ONCE)


class TestComparisonAndTheorems:
    def test_comparison_rows(self):
        table = _compare(protocols=("marp", "primary-copy"), gap=80.0,
                         requests=4)
        assert len(table.rows) == 2
        assert table.value(("marp", "lan"), "hops") > 0
        assert table.value(("primary-copy", "lan"), "hops") == 0
        assert "protocol" in table.text

    def test_contention_favours_marp(self):
        """T1, the paper's §1/§5 claim: under write contention the voting
        protocols burn retry rounds; MARP needs less than half their
        control messages and finishes sooner."""
        table = _compare(protocols=("marp", "mcv", "weighted-voting"),
                         gap=25.0, requests=8)
        marp, mcv, wv = (
            dict(zip(table.headers, table.row(p)))
            for p in ("marp", "mcv", "weighted-voting")
        )
        for row in (marp, mcv, wv):
            assert row["committed"] == 40.0
            assert row["consistent"]
        assert marp["ctl msgs"] < mcv["ctl msgs"] / 2
        assert marp["ctl msgs"] < wv["ctl msgs"] / 2
        assert marp["ATT(ms)"] < mcv["ATT(ms)"]
        assert marp["ATT(ms)"] < wv["ATT(ms)"]
        assert marp["hops"] > 0
        assert mcv["hops"] == 0
        assert claims.CLAIMS["T1"].verdict(table).holds

    def test_wan_slows_everyone_and_marp_keeps_the_smaller_bill(self):
        """T2: the WAN profile is several times slower for every
        protocol, and MARP's message bill stays below the voting one."""
        protocols = ("marp", "mcv", "weighted-voting")
        table = _compare(protocols=protocols, latencies=("lan", "wan"),
                         gap=400.0, requests=4)
        for protocol in protocols:
            lan = dict(zip(table.headers, table.row(protocol, "lan")))
            wan = dict(zip(table.headers, table.row(protocol, "wan")))
            assert lan["consistent"] and wan["consistent"]
            assert wan["ATT(ms)"] > 5 * lan["ATT(ms)"]
        assert (
            table.value(("marp", "wan"), "ctl msgs")
            < table.value(("mcv", "wan"), "ctl msgs")
        )

    def test_row_for_missing_raises(self):
        table = _compare(protocols=("marp",), requests=3)
        with pytest.raises(KeyError):
            table.row("mcv")

    def test_theorem3_bounds_hold(self):
        table = claims.theorem3(server_counts=(3, 5), requests=6, gap=40.0, **ONCE)
        assert claims.CLAIMS["T3"].verdict(table).holds
        for n in (3, 5):
            assert table.value(n, "lower bound") == n // 2 + 1
            assert table.value(n, "upper bound") == n
            assert table.value(n, "commits") == 6 * n
        # at negligible load the winner stops at exactly (N+1)/2 visits
        idle = claims.theorem3(server_counts=(5,), requests=3, gap=500.0, **ONCE)
        assert idle.value(5, "observed min") == 3


class TestAblationsAndThroughput:
    def test_every_itinerary_commits_consistently(self):
        strategies = ("cost-sorted", "initial-cost-order", "static-order",
                      "random-order")
        table = claims.variants(title="A1", param="itinerary", values=strategies,
                         gap=60.0, requests=4, topology="random-costs",
                         **ONCE)
        for strategy in strategies:
            assert table.value(strategy, "consistent")
            assert table.value(strategy, "committed") == 20.0

    def test_bulletin_sharing_is_optional_for_consistency(self):
        table = claims.variants(title="A2", param="enable_bulletin",
                         values=(True, False), gap=30.0, requests=4, **ONCE)
        assert table.value(True, "consistent")
        assert table.value(False, "consistent")

    def test_batching_amortises_migrations(self):
        table = claims.variants(title="A3", param="batch_size", values=(1, 4),
                         gap=20.0, requests=8, **ONCE)
        assert table.value(1, "consistent")
        assert table.value(4, "consistent")
        assert table.value(4, "agent hops") < table.value(1, "agent hops")

    def test_throughput_saturates_at_the_lock_handoff_rate(self):
        """X1: the two highest offered loads achieve the same
        throughput; the lightest one is served almost in full. (The
        grid moved from 10/30 ms when the agent next in line began to
        claim behind the winner: the ceiling rose past 30 ms's load.)"""
        table = claims.throughput(gaps=(5.0, 10.0, 160.0), requests=10, **ONCE)
        offered = table.column("offered/s")
        achieved = table.column("achieved/s")
        assert achieved[0] < offered[0] * 0.5
        assert achieved[0] == pytest.approx(achieved[1], rel=0.25)
        assert achieved[-1] > offered[-1] * 0.5
        assert all(table.column("consistent"))
