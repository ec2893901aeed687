"""Tabular experiment reports.

Every benchmark regenerates one of the paper's tables or figure series. This
module gives them a common output format: an :class:`ExperimentTable` that
renders aligned plain text (for terminal bench output), GitHub markdown (for
documentation), and CSV (for downstream plotting) — all from the same rows,
so the three never drift apart.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence


def format_cell(value) -> str:
    """Human-friendly formatting: floats get 4 significant digits."""
    if isinstance(value, bool) or value is None:
        return str(value)
    if isinstance(value, float):
        if value != value:  # NaN
            return "nan"
        if value == 0:
            return "0"
        if abs(value) >= 1e4 or abs(value) < 1e-3:
            return f"{value:.3e}"
        return f"{value:.4g}"
    return str(value)


@dataclass
class ExperimentTable:
    """One experiment's result table.

    Parameters
    ----------
    title:
        Table caption, e.g. ``"Table II: ablation (Geolife profile)"``.
    columns:
        Ordered column names.
    rows:
        Added via :meth:`add_row`; each row must match ``columns``.
    """

    title: str
    columns: Sequence[str]
    rows: list[list] = field(default_factory=list)

    def add_row(self, *values, **named) -> None:
        """Append one row, positionally or by column name (not both)."""
        if values and named:
            raise ValueError("pass positional or named values, not both")
        if named:
            missing = set(self.columns) - set(named)
            extra = set(named) - set(self.columns)
            if missing or extra:
                raise ValueError(
                    f"row mismatch: missing {sorted(missing)}, "
                    f"unexpected {sorted(extra)}"
                )
            values = tuple(named[c] for c in self.columns)
        if len(values) != len(self.columns):
            raise ValueError(
                f"expected {len(self.columns)} values, got {len(values)}"
            )
        self.rows.append(list(values))

    def __len__(self) -> int:
        return len(self.rows)

    # --------------------------------------------------------------- rendering
    def _cells(self) -> list[list[str]]:
        return [[format_cell(v) for v in row] for row in self.rows]

    def render_text(self) -> str:
        """Aligned plain-text rendering for terminal output."""
        header = [str(c) for c in self.columns]
        body = self._cells()
        widths = [
            max(len(header[i]), *(len(r[i]) for r in body)) if body else len(header[i])
            for i in range(len(header))
        ]
        lines = [self.title]
        lines.append("  ".join(h.ljust(w) for h, w in zip(header, widths)))
        lines.append("  ".join("-" * w for w in widths))
        for row in body:
            lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
        return "\n".join(lines)

    def render_markdown(self) -> str:
        """GitHub-flavoured markdown table with a bold caption."""
        lines = [f"**{self.title}**", ""]
        lines.append("| " + " | ".join(str(c) for c in self.columns) + " |")
        lines.append("|" + "|".join("---" for _ in self.columns) + "|")
        for row in self._cells():
            lines.append("| " + " | ".join(row) + " |")
        return "\n".join(lines)

    def render_csv(self) -> str:
        out = io.StringIO()
        writer = csv.writer(out)
        writer.writerow(self.columns)
        writer.writerows(self.rows)
        return out.getvalue()

    # ----------------------------------------------------------------- output
    def print(self) -> None:
        """Print the text rendering (benchmark harness convention)."""
        print()
        print(self.render_text())

    def save_csv(self, path: str | Path) -> None:
        Path(path).write_text(self.render_csv())

    def save_markdown(self, path: str | Path) -> None:
        Path(path).write_text(self.render_markdown() + "\n")


def series_table(
    title: str,
    x_name: str,
    x_values: Sequence,
    series: dict[str, Sequence[float]],
) -> ExperimentTable:
    """A figure-style table: one x column plus one column per method.

    This is the shape of the paper's line plots (Figs. 4-9): F1 per
    compression ratio per method.
    """
    for name, values in series.items():
        if len(values) != len(x_values):
            raise ValueError(
                f"series {name!r} has {len(values)} values, "
                f"expected {len(x_values)}"
            )
    table = ExperimentTable(title, [x_name, *series.keys()])
    for i, x in enumerate(x_values):
        table.add_row(x, *(series[name][i] for name in series))
    return table
