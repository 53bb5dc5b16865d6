"""`repro watch`: live terminal monitor for a streaming simulation.

Tails the sampled-series stream that a running simulation spills into
its ``REPRO_STREAM_DIR`` (see :mod:`repro.telemetry.stream`) and renders
a small dashboard of derived series — system IPC, per-channel read-queue
occupancy and row-hit rate, and critical/non-critical DRAM load latency
— as unicode sparklines, refreshed in place until the run's manifest
reports completion.

The monitor is a pure *reader*: it never touches simulated state, uses
only tolerant tail reads (a torn final line is simply not yet a sample),
and degrades gracefully when the "run" was satisfied from the engine's
result cache (the engine leaves a ``cache-replay`` marker manifest
explaining that nothing will be streamed).

``follow_events`` is the same idea for the raw event stream
(``repro trace --from-stream DIR --follow``): print each streamed JSONL
event line as it lands.
"""

from __future__ import annotations

import json
import sys
import time

from repro.sim.report import sparkline
from repro.telemetry import stream as stream_mod

_CLEAR = "\x1b[2J\x1b[H"  # ANSI: clear screen + home cursor


class _SampleFeed:
    """Accumulates sampled rows from a (possibly live) stream tail."""

    def __init__(self, directory):
        self.directory = directory
        self._tail = stream_mod.StreamTail(directory, "samples")
        self.cycles: list[int] = []
        self.rows: list[list] = []

    def poll(self) -> int:
        """Ingest newly-complete sample lines; returns how many."""
        fresh = 0
        for line in self._tail.poll():
            try:
                record = json.loads(line)
            # a torn line mid-write is not yet a sample; the tail
            # re-delivers it once its newline lands
            # repro-lint: disable=EXC002 tolerant live tailing
            except ValueError:
                continue
            self.cycles.append(record.get("cycle", 0))
            self.rows.append(record.get("values", []))
            fresh += 1
        return fresh


def _column(names: list[str], rows: list[list], name: str) -> list:
    try:
        idx = names.index(name)
    except ValueError:
        return []
    return [row[idx] for row in rows if idx < len(row)]


def _deltas(values: list) -> list:
    """Per-interval increments of a cumulative counter series."""
    return [b - a for a, b in zip(values, values[1:])]


def _ratio_series(num: list, den: list) -> list:
    return [n / d if d else 0.0 for n, d in zip(num, den)]


def derive_series(
    names: list[str], cycles: list[int], rows: list[list]
) -> list[tuple[str, list, str]]:
    """Dashboard series from raw sampled rows: (label, values, fmt).

    All derivations are interval deltas of cumulative counters (IPC,
    row-hit rate, latency means) or instantaneous gauges (queue
    occupancy), so they are meaningful regardless of sampling stride.
    """
    out: list[tuple[str, list, str]] = []
    dt = _deltas(cycles)
    committed_cols = [
        _column(names, rows, name)
        for name in names
        if name.startswith("core") and name.endswith(".committed")
    ]
    if committed_cols and dt:
        total = [sum(col[i] for col in committed_cols)
                 for i in range(len(rows))]
        out.append(("IPC (system)", _ratio_series(_deltas(total), dt),
                    "{:.2f}"))
    channels = sorted(
        {name.split(".")[0] for name in names
         if name.startswith("chan") and name.endswith(".read_queue")}
    )
    for chan in channels:
        queue = _column(names, rows, f"{chan}.read_queue")
        if queue:
            out.append((f"{chan} read queue", queue, "{:.0f}"))
        hits = _deltas(_column(names, rows, f"{chan}.row_hit_reads"))
        reads = _deltas(_column(names, rows, f"{chan}.reads_done"))
        if hits and reads:
            out.append((f"{chan} row-hit rate", _ratio_series(hits, reads),
                        "{:.2f}"))
    for kind in ("crit", "noncrit"):
        totals = _deltas(_column(names, rows, f"hier.{kind}_latency_total"))
        counts = _deltas(_column(names, rows, f"hier.{kind}_latency_count"))
        if totals and counts:
            out.append((f"{kind} load latency",
                        _ratio_series(totals, counts), "{:.0f}"))
    return out


def render_frame(
    manifest: dict | None,
    feed: _SampleFeed,
    width: int = 40,
) -> str:
    """One dashboard frame as text (no ANSI — the caller positions it)."""
    lines: list[str] = []
    if manifest is None:
        lines.append("waiting for a stream manifest "
                     f"in {feed.directory} ...")
        return "\n".join(lines)
    label = manifest.get("label") or "?"
    status = manifest.get("status", "?")
    lines.append(f"{label}  [{status}]")
    if feed.cycles:
        lines.append(
            f"cycle {feed.cycles[-1]:,}  ({len(feed.cycles)} samples)"
        )
    else:
        lines.append("no samples yet (is REPRO_SAMPLE_EVERY set?)")
    lines.append("")
    names = list(manifest.get("series", []))
    for title, values, fmt in derive_series(names, feed.cycles, feed.rows):
        if not values:
            continue
        latest = fmt.format(values[-1])
        lines.append(f"{title:<22} {sparkline(values, width):<{width}} "
                     f"{latest:>8}")
    return "\n".join(lines)


def watch(
    directory,
    interval: float = 1.0,
    once: bool = False,
    frames: int | None = None,
    out=None,
) -> int:
    """Tail a stream directory and render the dashboard until done.

    ``once`` renders a single frame and returns; ``frames`` bounds the
    number of refreshes (for CI).  Returns a shell exit code.
    """
    out = out or sys.stdout
    feed = _SampleFeed(directory)
    rendered = 0
    while True:
        try:
            manifest = stream_mod.read_manifest(directory, missing_ok=True)
        except stream_mod.StreamError as exc:
            # a corrupt/mid-write manifest is a user-facing condition,
            # not a monitor bug: one clear line, no traceback
            out.write(f"error: {exc}\n")
            return 1
        status = manifest.get("status") if manifest else None
        if status == "cache-replay":
            out.write(
                f"{manifest.get('label') or 'run'}: satisfied from the "
                f"result cache — nothing was simulated, so nothing was "
                f"streamed.  Rerun with --no-cache (or REPRO_NO_CACHE=1) "
                f"to watch a live simulation.\n"
            )
            return 0
        feed.poll()
        frame = render_frame(manifest, feed)
        if once or frames is not None:
            out.write(frame + "\n")
        else:
            out.write(_CLEAR + frame + "\n")
        out.flush()
        rendered += 1
        if once or (frames is not None and rendered >= frames):
            return 0
        if status == "complete":
            out.write("run complete.\n")
            return 0
        if status == "failed":
            out.write("run FAILED (stream aborted; tail was discarded).\n")
            return 1
        time.sleep(interval)


def follow_events(
    directory,
    out=None,
    poll: float = 0.5,
    max_lines: int | None = None,
) -> int:
    """Print streamed raw event lines as they land (``trace --follow``).

    Stops when the writer's manifest reports a terminal status and no
    new lines remain; ``max_lines`` bounds output (for CI).  Returns a
    shell exit code.
    """
    out = out or sys.stdout
    tail = stream_mod.StreamTail(directory, "events")
    printed = 0
    while True:
        lines = tail.poll()
        for line in lines:
            out.write(line + "\n")
            printed += 1
            if max_lines is not None and printed >= max_lines:
                out.flush()
                return 0
        out.flush()
        try:
            manifest = stream_mod.read_manifest(directory, missing_ok=True)
        except stream_mod.StreamError as exc:
            out.write(f"error: {exc}\n")
            return 1
        status = manifest.get("status") if manifest else None
        if status == "cache-replay":
            out.write("(cache replay: no events were streamed; rerun "
                      "with --no-cache)\n")
            return 0
        if status in ("complete", "failed") and not lines:
            return 0 if status == "complete" else 1
        if not lines:
            time.sleep(poll)
