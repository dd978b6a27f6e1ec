"""Tests for the scalability (S1) and availability (F1) experiments."""

import pytest

from repro.experiments.availability import run_availability
from repro.experiments.scalability import run_scalability


class TestScalability:
    @pytest.fixture(scope="class")
    def table(self):
        return run_scalability(
            protocols=("marp",), replica_counts=(3, 5),
            requests_per_client=4, repeats=1,
        )

    def test_rows_per_protocol_and_n(self, table):
        assert len(table.rows) == 2
        assert {row[1] for row in table.rows} == {3, 5}

    def test_everything_commits_consistently(self, table):
        for row in table.rows:
            assert row[2] == 4.0 * row[1]  # committed = clients * requests
            assert row[-1] is True

    def test_cost_grows_with_n(self, table):
        att = table.series("marp", "ATT(ms)")
        assert att[5] > att[3]

    def test_voting_degrades_faster_than_marp(self):
        """S1 with the voting baseline beside MARP: per-commit cost grows
        with N for both, and MCV's latency grows faster from 5 to 7
        (bigger quorums mean more conflicting vote rounds)."""
        table = run_scalability(
            protocols=("marp", "mcv"), replica_counts=(3, 5, 7),
            requests_per_client=4, repeats=1,
        )
        growth = {}
        for protocol in ("marp", "mcv"):
            att = table.series(protocol, "ATT(ms)")
            msgs = table.series(protocol, "msgs/commit")
            assert att[7] > att[3]
            assert msgs[7] > msgs[3]
            growth[protocol] = att[7] / att[5]
        assert growth["mcv"] > growth["marp"]

    def test_series_accessor(self, table):
        msgs = table.series("marp", "msgs/commit")
        assert set(msgs) == {3, 5}

    def test_text_renders(self, table):
        assert "S1" in table.text


class TestAvailability:
    @pytest.fixture(scope="class")
    def table(self):
        return run_availability(
            protocols=("marp",), crash_counts=(0, 2),
            requests_per_client=3, repeats=1, horizon=200_000.0,
        )

    def test_full_availability_without_crashes(self, table):
        assert table.availability("marp")[0] == 100.0

    def test_graceful_degradation_with_minority_down(self, table):
        # 2 of 5 homes are dead: only their clients are denied.
        assert table.availability("marp")[2] == pytest.approx(60.0)

    def test_availability_steps_down_to_the_quorum_bound(self):
        """F1: each crashed home costs its own clients only while a
        majority lives; below it nothing commits. Primary-copy dies
        with its primary, the first crash victim."""
        table = run_availability(
            protocols=("marp", "primary-copy"), crash_counts=(0, 1, 2, 3),
            requests_per_client=3, repeats=1, horizon=200_000.0,
        )
        marp = table.availability("marp")
        assert marp[0] == 100.0
        assert marp[1] == pytest.approx(80.0)
        assert marp[2] == pytest.approx(60.0)
        assert marp[3] == 0.0
        primary = table.availability("primary-copy")
        assert primary[0] == 100.0
        assert primary[1] == 0.0

    def test_survivors_stay_consistent(self, table):
        for row in table.rows:
            assert row[-1] is True

    def test_text_renders(self, table):
        assert "F1" in table.text
