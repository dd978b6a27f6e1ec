"""Experiment tables: one :class:`Table` type and its renderings.

Every claim of :mod:`repro.experiments.claims` (and the scale family)
projects its runs to one :class:`Table`; the CLI renders it as an
aligned text table, CSV or JSON, and :attr:`Table.chart` draws its
numeric columns, so every output format reads the same rows.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

__all__ = ["Table", "format_table", "format_series", "format_cell"]


@dataclass
class Table:
    """A titled grid: ``headers`` over ``rows`` of raw (unrounded) cells.

    ``keys`` leading columns identify a row (``row`` / ``value`` look
    rows up by them); ``note`` is a line printed under the text table.
    """

    title: str
    headers: List[str]
    rows: List[List[Any]] = field(default_factory=list)
    keys: int = 1
    note: str = ""

    def row(self, *key: Any) -> List[Any]:
        """The row whose first ``len(key)`` cells equal ``key``."""
        for row in self.rows:
            if tuple(row[:len(key)]) == key:
                return row
        raise KeyError(f"{self.title}: no row {key!r}")

    def value(self, key: Any, header: str) -> Any:
        """One cell: ``key`` is a row key (a tuple for several columns)."""
        key = key if isinstance(key, tuple) else (key,)
        return self.row(*key)[self.headers.index(header)]

    def column(self, header: str) -> List[Any]:
        """Every row's cell under ``header``, in row order."""
        index = self.headers.index(header)
        return [row[index] for row in self.rows]

    def series(self, header: str, where: Any = None) -> Dict[Any, Any]:
        """``{last key cell: cell under header}``, for the rows whose
        first key cell is ``where`` (every row when ``where`` is None)."""
        index = self.headers.index(header)
        return {
            row[self.keys - 1]: row[index] for row in self.rows
            if where is None or row[0] == where
        }

    @property
    def text(self) -> str:
        body = format_table(self.headers, self.rows, title=self.title)
        return body + ("\n" + self.note if self.note else "")

    @property
    def csv(self) -> str:
        """Header row plus one CSV row per table row (raw values)."""
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(self.headers)
        writer.writerows(self.rows)
        return buffer.getvalue()

    def payload(self) -> Dict[str, Any]:
        """JSON-ready form: one object per row, NaN as ``null``."""
        return {
            "title": self.title,
            "headers": list(self.headers),
            "rows": [
                {header: _json_cell(cell)
                 for header, cell in zip(self.headers, row)}
                for row in self.rows
            ],
            "note": self.note,
        }

    def render(self, fmt: str = "text") -> str:
        """The table as ``text``, ``csv`` or ``json``."""
        if fmt == "json":
            return json.dumps(self.payload(), indent=2)
        return self.csv if fmt == "csv" else self.text

    @property
    def chart(self) -> str:
        """ASCII chart: the first column as x, every other all-numeric
        column as a series."""
        from repro.analysis.charts import ascii_chart

        numeric = [
            index for index, header in enumerate(self.headers)
            if all(_is_number(row[index]) for row in self.rows)
        ]
        if not numeric or numeric[0] != 0:
            return "(no data)"
        return ascii_chart(
            self.column(self.headers[0]),
            {self.headers[i]: [row[i] for row in self.rows]
             for i in numeric[1:]},
            x_label=self.headers[0], title=self.title,
        )


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _json_cell(value: Any) -> Any:
    if isinstance(value, float) and math.isnan(value):
        return None
    return value


def format_cell(value: Any, precision: int = 1) -> str:
    """Human-friendly cell formatting (floats rounded, None blank)."""
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value != value:  # nan
            return "nan"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        return f"{value:.{precision}f}"
    return str(value)


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[Any]],
    title: Optional[str] = None,
    precision: int = 1,
) -> str:
    """Render an aligned text table."""
    str_rows: List[List[str]] = [
        [format_cell(cell, precision) for cell in row] for row in rows
    ]
    widths = [len(str(h)) for h in headers]
    for row in str_rows:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells, expected {len(headers)}"
            )
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))

    def fmt_row(cells: Sequence[str]) -> str:
        return "  ".join(
            cell.rjust(widths[i]) if i else cell.ljust(widths[i])
            for i, cell in enumerate(cells)
        )

    lines: List[str] = []
    if title:
        lines.append(title)
        lines.append("=" * max(len(title), 8))
    lines.append(fmt_row([str(h) for h in headers]))
    lines.append("  ".join("-" * w for w in widths))
    lines.extend(fmt_row(row) for row in str_rows)
    return "\n".join(lines)


def format_series(
    x_label: str,
    x_values: Sequence[Any],
    series: "dict[str, Sequence[Any]]",
    title: Optional[str] = None,
    precision: int = 1,
) -> str:
    """Render figure-style data: x column plus one column per series."""
    names = list(series)
    for name in names:
        if len(series[name]) != len(x_values):
            raise ValueError(
                f"series {name!r} has {len(series[name])} points, "
                f"expected {len(x_values)}"
            )
    rows = [
        [x] + [series[name][index] for name in names]
        for index, x in enumerate(x_values)
    ]
    return format_table([x_label] + names, rows, title=title,
                        precision=precision)
