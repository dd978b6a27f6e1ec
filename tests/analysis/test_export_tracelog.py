"""Tests for result export and the trace log module."""

import csv
import io
import json

import pytest

from repro.analysis.tables import Table
from repro.analysis.tracelog import ProtocolTrace


@pytest.fixture
def figure():
    return Table(
        "Figure X", ["gap", "3 servers", "5 servers"],
        [[10.0, 5.0, 9.0], [20.0, 3.0, 6.0]],
        note="consistency audit: all runs consistent",
    )


@pytest.fixture
def comparison():
    return Table(
        "T",
        ["protocol", "net", "ATT(ms)", "msgs/commit", "consistent"],
        [["marp", "lan", 12.5, 13.0, True],
         ["mcv", "lan", float("nan"), 20.0, True]],
        keys=2,
    )


class TestFigureExport:
    def test_rows_shape(self, figure):
        assert figure.headers == ["gap", "3 servers", "5 servers"]
        assert figure.rows == [[10.0, 5.0, 9.0], [20.0, 3.0, 6.0]]
        assert figure.series("5 servers") == {10.0: 9.0, 20.0: 6.0}

    def test_csv_round_trip(self, figure):
        parsed = list(csv.reader(io.StringIO(figure.csv)))
        assert parsed[0] == ["gap", "3 servers", "5 servers"]
        assert parsed[1] == ["10.0", "5.0", "9.0"]

    def test_json_fields(self, figure):
        data = json.loads(json.dumps(figure.payload()))
        assert data["title"] == "Figure X"
        assert [row["5 servers"] for row in data["rows"]] == [9.0, 6.0]
        assert data["note"] == "consistency audit: all runs consistent"


class TestComparisonExport:
    def test_csv(self, comparison):
        parsed = list(csv.reader(io.StringIO(comparison.csv)))
        assert parsed[0][0] == "protocol"
        assert parsed[1][0] == "marp"

    def test_json(self, comparison):
        data = json.loads(json.dumps(comparison.payload(), allow_nan=False))
        assert data["rows"][0]["protocol"] == "marp"
        assert data["rows"][0]["ATT(ms)"] == 12.5
        assert data["rows"][1]["ATT(ms)"] is None  # NaN is not JSON
        assert comparison.value(("marp", "lan"), "msgs/commit") == 13.0
        with pytest.raises(KeyError):
            comparison.row("primary-copy")


class TestAblationExport:
    def test_csv(self):
        table = Table("A", ["variant", "metric"], [["a", 1.0], ["b", 2.0]])
        parsed = list(csv.reader(io.StringIO(table.csv)))
        assert parsed == [["variant", "metric"], ["a", "1.0"], ["b", "2.0"]]


class TestProtocolTraceUnit:
    def test_record_and_filter(self):
        trace = ProtocolTrace()
        trace.record(1.0, "dispatch", host="s1", agent="a1")
        trace.record(2.0, "commit", host="s2", agent="a1")
        trace.record(3.0, "dispatch", host="s2", agent="a2")
        assert len(trace) == 3
        assert len(trace.of_kind("dispatch")) == 2
        assert len(trace.for_agent("a1")) == 2
        assert trace.counts()["commit"] == 1

    def test_journeys_running_state(self):
        trace = ProtocolTrace()
        trace.record(1.0, "dispatch", host="s1", agent="a1")
        trace.record(2.0, "arrive", host="s2", agent="a1")
        journeys = trace.journeys()
        assert journeys["a1"] == "s1 > s2 [running]"

    def test_render_log_full(self):
        trace = ProtocolTrace()
        trace.record(1.0, "dispatch", host="s1", agent="a1", detail="d")
        text = trace.render_log(limit=None)
        assert "dispatch" in text
        assert "more events" not in text

    def test_render_journeys(self):
        trace = ProtocolTrace()
        trace.record(1.0, "dispatch", host="s1", agent="a1")
        trace.record(2.0, "abort", host="s1", agent="a1")
        assert "[abort]" in trace.render_journeys()
