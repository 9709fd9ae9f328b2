"""Store-backed Markdown reporting and trace summaries.

The store holds provenance-rich rows; this module turns them into something
a human reads.  :func:`render_study` aggregates every entry of a store (or
one kind) into a Markdown study summary — per-adversary metric heat tables,
phase-time splits and event counts from the telemetry provenance block —
with no network access and no re-execution.  :func:`summarize_trace`
condenses an NDJSON trace into round/chunk/fleet statistics.

Imported lazily by the CLI command handlers only: this module reads the
scenarios store, so importing it from ``repro.obs.__init__`` would cycle
back through the simulator.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.analysis.report import format_table
from repro.errors import ReproError
from repro.scenarios.store import ResultsStore, StoreEntry

__all__ = ["markdown_table", "render_study", "summarize_trace"]

#: Unicode ramp used to annotate numeric cells with a per-column heat glyph.
_HEAT_RAMP = "▁▂▃▄▅▆▇█"


def _format_cell(value: Any, precision: int) -> str:
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        if value != value:  # NaN
            return "nan"
        if abs(value - round(value)) < 1e-9 and abs(value) < 1e12:
            return str(int(round(value)))
        return f"{value:.{precision}f}"
    return "" if value is None else str(value)


def markdown_table(
    rows: Sequence[Mapping[str, Any]],
    *,
    columns: Optional[Sequence[str]] = None,
    precision: int = 3,
    heat: bool = False,
) -> str:
    """Render rows as a GitHub-flavoured Markdown pipe table.

    Numeric columns are right-aligned.  With ``heat=True`` every numeric
    cell gains a per-column glyph from a min-max-scaled ramp, giving a
    text-only heat table (columns with a single distinct value are left
    unannotated).
    """
    if not rows:
        return "(no rows)\n"
    if columns is not None:
        keys = list(columns)
    else:
        keys = []
        for row in rows:
            for key in row:
                if key not in keys:
                    keys.append(key)

    def numeric(key: str) -> bool:
        values = [row.get(key) for row in rows if row.get(key) is not None]
        return bool(values) and all(
            isinstance(v, (int, float)) and not isinstance(v, bool) for v in values
        )

    numeric_keys = {key for key in keys if numeric(key)}
    spans: Dict[str, Tuple[float, float]] = {}
    if heat:
        for key in numeric_keys:
            values = [float(row[key]) for row in rows if row.get(key) is not None]
            low, high = min(values), max(values)
            if high > low:
                spans[key] = (low, high)

    def cell(row: Mapping[str, Any], key: str) -> str:
        text = _format_cell(row.get(key), precision)
        span = spans.get(key)
        if span is not None and row.get(key) is not None:
            low, high = span
            index = int(round((float(row[key]) - low) / (high - low) * (len(_HEAT_RAMP) - 1)))
            text = f"{text} {_HEAT_RAMP[index]}"
        return text

    lines = ["| " + " | ".join(keys) + " |"]
    lines.append(
        "|" + "|".join(("---:" if key in numeric_keys else "---") for key in keys) + "|"
    )
    for row in rows:
        lines.append("| " + " | ".join(cell(row, key) for key in keys) + " |")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# study rendering
# ---------------------------------------------------------------------------


def _split_columns(rows: Sequence[Mapping[str, Any]]) -> Tuple[List[str], List[str]]:
    """``(categorical, numeric)`` column names across ``rows``."""
    keys: List[str] = []
    for row in rows:
        for key in row:
            if key not in keys:
                keys.append(key)
    categorical: List[str] = []
    numeric: List[str] = []
    for key in keys:
        values = [row.get(key) for row in rows if row.get(key) is not None]
        if not values:
            continue
        if any(isinstance(v, str) or isinstance(v, bool) for v in values):
            categorical.append(key)
        elif all(isinstance(v, (int, float)) for v in values):
            if key != "seed":
                numeric.append(key)
    return categorical, numeric


def _preferred_metrics(numeric: Sequence[str]) -> List[str]:
    preferred = [c for c in numeric if "valid" in c.lower() or "stab" in c.lower()]
    return preferred or list(numeric)


def _pick_index(categorical: Sequence[str]) -> Optional[str]:
    for needle in ("adversary", "algorithm"):
        for column in categorical:
            if needle in column.lower():
                return column
    return categorical[0] if categorical else None


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values)


def _group_means(
    rows: Sequence[Mapping[str, Any]], by: Sequence[str], metric: str
) -> Dict[Tuple[Any, ...], float]:
    groups: Dict[Tuple[Any, ...], List[float]] = {}
    for row in rows:
        value = row.get(metric)
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            continue
        groups.setdefault(tuple(row.get(k) for k in by), []).append(float(value))
    return {key: _mean(values) for key, values in groups.items()}


def _entry_tables(entry: StoreEntry) -> List[str]:
    """Heat tables summarising one entry's rows."""
    rows = [dict(row) for row in entry.rows]
    if not rows:
        return ["(no rows)\n"]
    categorical, numeric = _split_columns(rows)
    metrics = _preferred_metrics(numeric)
    index = _pick_index(categorical)
    out: List[str] = []
    if index is not None and len(categorical) >= 2:
        # Pivot: index x second-categorical, one heat table per metric.
        other = next(c for c in categorical if c != index)
        for metric in metrics:
            means = _group_means(rows, (index, other), metric)
            if not means:
                continue
            col_values = sorted({key[1] for key in means}, key=str)
            table_rows = []
            for idx_value in sorted({key[0] for key in means}, key=str):
                row: Dict[str, Any] = {index: idx_value}
                for col_value in col_values:
                    if (idx_value, col_value) in means:
                        row[f"{other}={col_value}"] = means[(idx_value, col_value)]
                table_rows.append(row)
            out.append(f"mean `{metric}` by `{index}` × `{other}`:\n")
            out.append(markdown_table(table_rows, heat=True))
    elif index is not None:
        means_by_metric = {m: _group_means(rows, (index,), m) for m in metrics}
        idx_values = sorted(
            {key[0] for means in means_by_metric.values() for key in means}, key=str
        )
        table_rows = []
        for idx_value in idx_values:
            row = {index: idx_value}
            for metric in metrics:
                if (idx_value,) in means_by_metric[metric]:
                    row[metric] = means_by_metric[metric][(idx_value,)]
            table_rows.append(row)
        out.append(f"metric means by `{index}`:\n")
        out.append(markdown_table(table_rows, heat=True))
    else:
        table_rows = [
            {"metric": metric, "mean": _mean(values)}
            for metric in metrics
            if (
                values := [
                    float(row[metric])
                    for row in rows
                    if isinstance(row.get(metric), (int, float))
                    and not isinstance(row.get(metric), bool)
                ]
            )
        ]
        out.append("metric means:\n")
        out.append(markdown_table(table_rows, heat=True))
    return out


def render_study(store: ResultsStore, *, kind: Optional[str] = None) -> str:
    """Aggregate a store into one Markdown study summary."""
    entries = list(store.entries(kind))
    if not entries:
        where = f"{store.root}" + (f" (kind {kind!r})" if kind else "")
        raise ReproError(f"no store entries found under {where}")

    lines: List[str] = ["# Study report", ""]
    lines.append(f"Store: `{store.root}`" + (f", kind: `{kind}`" if kind else ""))
    lines.append("")
    lines.append("## Entries")
    lines.append("")
    lines.append(
        markdown_table(
            [
                {
                    "kind": entry.kind,
                    "label": entry.label,
                    "rows": len(entry.rows),
                    "version": str(entry.provenance.get("repro_version", "")),
                }
                for entry in entries
            ]
        )
    )

    for entry in entries:
        lines.append(f"## {entry.kind}/{entry.label}")
        lines.append("")
        for block in _entry_tables(entry):
            lines.append(block)

    # Phase-time splits and event counts from the telemetry provenance.
    phase_rows: List[Dict[str, Any]] = []
    event_rows: List[Dict[str, Any]] = []
    for entry in entries:
        telemetry = entry.provenance.get("telemetry") or {}
        phases = telemetry.get("phases") or {}
        if phases:
            row: Dict[str, Any] = {"entry": f"{entry.kind}/{entry.label}"}
            for name, block in phases.items():
                row[name] = float(block.get("seconds", 0.0))
            phase_rows.append(row)
        events = telemetry.get("events") or {}
        if events:
            event_rows.append({"entry": f"{entry.kind}/{entry.label}", **events})

    lines.append("## Phase-time splits")
    lines.append("")
    if phase_rows:
        lines.append(markdown_table(phase_rows, precision=4, heat=True))
    else:
        lines.append("(none recorded — run with telemetry enabled)\n")

    lines.append("## Event counts")
    lines.append("")
    if event_rows:
        lines.append(markdown_table(event_rows))
    else:
        lines.append("(none recorded)\n")

    return "\n".join(lines)


# ---------------------------------------------------------------------------
# trace summaries
# ---------------------------------------------------------------------------


def summarize_trace(events: Sequence[Mapping[str, Any]]) -> str:
    """Condense a decoded NDJSON trace into aligned text tables."""
    if not events:
        return "(empty trace)\n"
    out: List[str] = []

    counts = Counter(str(e.get("event")) for e in events)
    out.append(
        format_table(
            [{"event": name, "count": count} for name, count in sorted(counts.items())],
            title="event counts",
        )
    )

    rounds = [e for e in events if e.get("event") == "round"]
    if rounds:
        by_mode = Counter(str(e.get("mode")) for e in rounds)
        frontier = [int(e.get("frontier", 0)) for e in rounds]
        out.append(
            format_table(
                [
                    {
                        "mode": mode,
                        "rounds": count,
                        "frontier_mean": _mean(
                            [float(e.get("frontier", 0)) for e in rounds if e.get("mode") == mode]
                        ),
                        "frontier_max": max(
                            int(e.get("frontier", 0)) for e in rounds if e.get("mode") == mode
                        ),
                    }
                    for mode, count in sorted(by_mode.items())
                ],
                title="rounds",
            )
        )
        quiescent = sum(1 for e in rounds if e.get("quiescent"))
        out.append(
            f"frontier max {max(frontier)}, quiescent rounds {quiescent}/{len(rounds)}\n"
        )

    batches = [e for e in events if e.get("event") == "batch_end"]
    chunks = [e for e in events if e.get("event") == "chunk_done"]
    if batches or chunks:
        out.append(
            format_table(
                [
                    {
                        "batches": len(batches),
                        "units": sum(int(e.get("units", 0)) for e in batches),
                        "chunks": len(chunks),
                        "seconds": sum(float(e.get("seconds", 0.0)) for e in batches),
                    }
                ],
                title="execution",
            )
        )

    dispatches = [e for e in events if e.get("event") == "dispatch"]
    if dispatches:
        losses = Counter(
            str(e.get("reason")) for e in events if e.get("event") == "worker_lost"
        )
        out.append(
            format_table(
                [
                    {
                        "dispatched": len(dispatches),
                        "redispatched": counts.get("redispatch", 0),
                        "workers_lost": sum(losses.values()),
                        "loss_reasons": ",".join(
                            f"{k}={v}" for k, v in sorted(losses.items())
                        ) or "-",
                    }
                ],
                title="remote fabric",
            )
        )

    results = [e for e in events if e.get("event") == "chunk_result"]
    if results:
        totals: Dict[str, float] = {}
        for event in results:
            for phase, seconds in (event.get("timings") or {}).items():
                totals[phase] = totals.get(phase, 0.0) + float(seconds)
        if totals:
            out.append(
                format_table(
                    [
                        {"phase": phase, "seconds": seconds}
                        for phase, seconds in sorted(totals.items())
                    ],
                    title="worker-reported phase totals",
                )
            )

    times = [float(e.get("t", 0.0)) for e in events if isinstance(e.get("t"), (int, float))]
    pids = {e.get("pid") for e in events if e.get("pid") is not None}
    if times:
        out.append(
            f"wall span {max(times) - min(times):.3f}s across {len(pids)} process(es), "
            f"{len(events)} events\n"
        )
    return "\n".join(out)
