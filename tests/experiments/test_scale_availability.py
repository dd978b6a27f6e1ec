"""Tests for the scalability (S1) and availability (F1) claims' grid
runners, on each test's own small grid."""

import pytest

from repro.experiments.claims import CLAIMS, availability, scalability

ONCE = dict(repeats=1, seed=0)


class TestScalability:
    @pytest.fixture(scope="class")
    def table(self):
        return scalability(
            protocols=("marp",), replica_counts=(3, 5), requests=4, **ONCE
        )

    def test_rows_per_protocol_and_n(self, table):
        assert len(table.rows) == 2
        assert {row[1] for row in table.rows} == {3, 5}

    def test_everything_commits_consistently(self, table):
        for row in table.rows:
            assert row[2] == 4.0 * row[1]  # committed = clients * requests
            assert row[-1] is True

    def test_cost_grows_with_n(self, table):
        att = table.series("ATT(ms)", "marp")
        assert att[5] > att[3]

    def test_voting_degrades_faster_than_marp(self):
        """S1 with the voting baseline beside MARP: per-commit cost grows
        with N for both, and MCV's latency grows faster from 5 to 7
        (bigger quorums mean more conflicting vote rounds)."""
        table = scalability(
            protocols=("marp", "mcv"), replica_counts=(3, 5, 7), requests=4,
            **ONCE,
        )
        growth = {}
        for protocol in ("marp", "mcv"):
            att = table.series("ATT(ms)", protocol)
            msgs = table.series("msgs/commit", protocol)
            assert att[7] > att[3]
            assert msgs[7] > msgs[3]
            growth[protocol] = att[7] / att[5]
        assert growth["mcv"] > growth["marp"]

    def test_series_accessor(self, table):
        msgs = table.series("msgs/commit", "marp")
        assert set(msgs) == {3, 5}

    def test_text_renders(self, table):
        assert "S1" in table.text


class TestAvailability:
    @pytest.fixture(scope="class")
    def table(self):
        return availability(
            protocols=("marp",), crash_counts=(0, 2), requests=3,
            horizon=200_000.0, **ONCE,
        )

    def test_full_availability_without_crashes(self, table):
        assert table.series("committed %", "marp")[0] == 100.0

    def test_graceful_degradation_with_minority_down(self, table):
        # 2 of 5 homes are dead: only their clients are denied.
        assert table.series("committed %", "marp")[2] == pytest.approx(60.0)

    def test_availability_steps_down_to_the_quorum_bound(self):
        """F1: each crashed home costs its own clients only while a
        majority lives; below it nothing commits. Primary-copy dies
        with its primary, the first crash victim."""
        table = availability(
            protocols=("marp", "primary-copy"), crash_counts=(0, 1, 2, 3),
            requests=3, horizon=200_000.0, **ONCE,
        )
        marp = table.series("committed %", "marp")
        assert marp[0] == 100.0
        assert marp[1] == pytest.approx(80.0)
        assert marp[2] == pytest.approx(60.0)
        assert marp[3] == 0.0
        primary = table.series("committed %", "primary-copy")
        assert primary[0] == 100.0
        assert primary[1] == 0.0
        assert CLAIMS["F1"].verdict(table).holds

    def test_survivors_stay_consistent(self, table):
        for row in table.rows:
            assert row[-1] is True

    def test_text_renders(self, table):
        assert "F1" in table.text
