"""Tests for ASCII chart rendering and queue monitoring."""

import pytest

from repro.analysis.charts import ascii_chart, sparkline


class TestSparkline:
    def test_levels_span_range(self):
        line = sparkline([0.0, 50.0, 100.0])
        assert line[0] == "▁"
        assert line[-1] == "█"
        assert len(line) == 3

    def test_constant_series(self):
        assert sparkline([5.0, 5.0]) == "▁▁"

    def test_empty(self):
        assert sparkline([]) == ""

    def test_nan_becomes_blank(self):
        assert sparkline([1.0, float("nan"), 2.0])[1] == " "


class TestAsciiChart:
    def test_renders_axes_and_legend(self):
        chart = ascii_chart(
            [1, 2, 3], {"alpha": [10.0, 20.0, 30.0]},
            width=20, height=6, x_label="gap", title="demo",
        )
        assert "demo" in chart
        assert "o alpha" in chart
        assert "30" in chart and "10" in chart  # y range annotations
        assert "gap" in chart

    def test_multiple_series_distinct_markers(self):
        chart = ascii_chart(
            [1, 2], {"a": [1.0, 2.0], "b": [2.0, 1.0]},
            width=20, height=6,
        )
        assert "o a" in chart
        assert "x b" in chart

    def test_degenerate_dimensions_rejected(self):
        with pytest.raises(ValueError):
            ascii_chart([1], {"a": [1.0]}, width=5, height=6)

    def test_no_data(self):
        assert ascii_chart([], {}, width=20, height=6) == "(no data)"

    def test_constant_values_do_not_crash(self):
        chart = ascii_chart([1, 2], {"a": [5.0, 5.0]}, width=20, height=6)
        assert "o a" in chart

    def test_figure_chart_property(self):
        from repro.analysis.tables import Table

        figure = Table("t", ["x", "s", "label"],
                       [[1.0, 3.0, "a"], [2.0, 4.0, "b"]])
        assert "o s" in figure.chart
        assert "label" not in figure.chart  # only numeric columns plot
