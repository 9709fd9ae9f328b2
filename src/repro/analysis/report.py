"""Plain-text rendering of experiment rows.

The benchmark harness prints, for every experiment, the rows it regenerated —
the moral equivalent of the paper's tables/figures (the paper itself has
none).  Keeping the renderer tiny and dependency-free means the same tables
show up in CI logs, ``results/TABLES.txt`` and interactive use.
"""

from __future__ import annotations

import io
from typing import Mapping, Sequence

__all__ = ["format_table", "rows_to_csv"]


def _format_value(value: object, precision: int) -> str:
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        if value != value:  # NaN
            return "nan"
        if abs(value - round(value)) < 1e-9 and abs(value) < 1e12:
            return str(int(round(value)))
        return f"{value:.{precision}f}"
    return str(value)


def format_table(
    rows: Sequence[Mapping[str, object]],
    *,
    title: str = "",
    columns: Sequence[str] | None = None,
    precision: int = 3,
) -> str:
    """Render rows as an aligned text table.

    Parameters
    ----------
    rows:
        Sequence of mappings; missing keys render as empty cells.
    title:
        Optional heading printed above the table.
    columns:
        Column order (defaults to the keys of the first row, in order).
    precision:
        Decimal places for float values.
    """
    if not rows:
        return f"{title}\n(no rows)\n" if title else "(no rows)\n"
    if columns is not None:
        keys = list(columns)
    else:
        # Union of keys across all rows (first-seen order), so tables that mix
        # row schemas (e.g. the ablation experiment) do not drop columns.
        keys = []
        for row in rows:
            for key in row:
                if key not in keys:
                    keys.append(key)
    rendered = [
        [_format_value(row.get(key, ""), precision) for key in keys] for row in rows
    ]
    widths = [
        max(len(key), *(len(line[i]) for line in rendered)) for i, key in enumerate(keys)
    ]
    out = io.StringIO()
    if title:
        out.write(title + "\n")
    header = "  ".join(key.ljust(widths[i]) for i, key in enumerate(keys))
    out.write(header + "\n")
    out.write("  ".join("-" * widths[i] for i in range(len(keys))) + "\n")
    for line in rendered:
        out.write("  ".join(line[i].ljust(widths[i]) for i in range(len(keys))) + "\n")
    return out.getvalue()


def rows_to_csv(rows: Sequence[Mapping[str, object]], *, columns: Sequence[str] | None = None) -> str:
    """Render rows as a minimal CSV string (for saving experiment outputs)."""
    if not rows:
        return ""
    keys = list(columns) if columns is not None else list(rows[0].keys())
    lines = [",".join(keys)]
    for row in rows:
        lines.append(",".join(_format_value(row.get(key, ""), 6) for key in keys))
    return "\n".join(lines) + "\n"
