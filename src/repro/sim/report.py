"""Renderers for :class:`~repro.experiments.common.ExperimentResult`.

Plain-text rendering lives on the result itself (``.table()``); this
module adds Markdown and CSV for reports (EXPERIMENTS.md is assembled
from these), plus a minimal ASCII bar chart for speedup-style columns.

Telemetry renderers (:func:`histogram_ascii`, :func:`telemetry_markdown`,
:func:`timeseries_to_csv`) take :class:`~repro.sim.stats.SimResult`
telemetry output — registry snapshots and interval-sampler series — and
format it for the ``python -m repro stats`` command and reports.
"""

from __future__ import annotations

import csv
import io


def to_markdown(result) -> str:
    """GitHub-flavoured Markdown table."""
    cols = result.columns
    lines = [f"### {result.experiment_id}: {result.title}", ""]
    lines.append("| " + " | ".join(str(c) for c in cols) + " |")
    lines.append("|" + "|".join("---" for _ in cols) + "|")
    for row in result.rows:
        lines.append(
            "| " + " | ".join(_fmt(row.get(c)) for c in cols) + " |"
        )
    if result.notes:
        lines += ["", f"*{result.notes}*"]
    return "\n".join(lines)


def to_csv(result) -> str:
    """CSV with a header row."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(result.columns)
    for row in result.rows:
        writer.writerow([_fmt(row.get(c)) for c in result.columns])
    return buf.getvalue()


def bar_chart(result, label_column, value_column, width: int = 40,
              reference: float | None = 1.0) -> str:
    """ASCII horizontal bars for one numeric column.

    ``reference`` draws the bars relative to a baseline value (1.0 for
    speedups); None scales to the maximum.
    """
    rows = [r for r in result.rows if isinstance(r.get(value_column), (int, float))]
    if not rows:
        return "(no numeric data)"
    values = [r[value_column] for r in rows]
    top = max(values + ([reference] if reference else []))
    label_w = max(len(str(r[label_column])) for r in rows)
    lines = []
    for row in rows:
        value = row[value_column]
        filled = int(round(width * value / top)) if top else 0
        lines.append(
            f"{str(row[label_column]):<{label_w}}  "
            f"{'#' * filled:<{width}}  {value:.3f}"
        )
    return "\n".join(lines)


def _fmt(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


# ------------------------------------------------------------- telemetry

def _is_histogram_summary(value) -> bool:
    return isinstance(value, dict) and "p99" in value and "buckets" in value


def histogram_ascii(summary: dict, width: int = 40) -> str:
    """ASCII shape of one histogram summary (power-of-two buckets).

    ``summary`` is a :meth:`LatencyHistogram.summary` dict; each occupied
    bucket renders one row labelled with its upper bound.
    """
    buckets = summary.get("buckets") or []
    if not buckets:
        return "(empty)"
    top = max(n for _, n in buckets)
    label_w = max(len(str((1 << i) - 1 if i else 0)) for i, _ in buckets)
    lines = []
    for i, n in buckets:
        upper = (1 << i) - 1 if i else 0
        filled = max(1, int(round(width * n / top))) if top else 0
        lines.append(f"<= {upper:>{label_w}}  {'#' * filled}  {n}")
    return "\n".join(lines)


def telemetry_markdown(result) -> str:
    """Markdown table of every histogram in ``result.metrics``."""
    rows = [
        (name, value)
        for name, value in result.metrics.items()
        if _is_histogram_summary(value)
    ]
    if not rows:
        return "(no histograms recorded)"
    lines = [
        "| instrument | count | mean | p50 | p90 | p99 | max |",
        "|---|---|---|---|---|---|---|",
    ]
    for name, s in rows:
        lines.append(
            f"| {name} | {s['count']} | {s['mean']:.1f} | {s['p50']} "
            f"| {s['p90']} | {s['p99']} | {s['max']} |"
        )
    return "\n".join(lines)


def timeseries_to_csv(result) -> str:
    """Interval-sampler series as CSV: one row per sample cycle."""
    names = list(result.timeseries)
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["cycle"] + names)
    for row_idx, cycle in enumerate(result.sample_cycles):
        writer.writerow(
            [cycle] + [result.timeseries[name][row_idx] for name in names]
        )
    return buf.getvalue()
