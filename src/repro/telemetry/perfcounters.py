"""Host-side perf counters for simulator internals (``REPRO_PERF=1``).

The telemetry registry measures the *simulated machine*; this module
measures the *simulator*: how many event-queue callbacks fired, how many
wake-heap entries went stale, how long each engine phase took on the
host clock.  That is the observability the model-batching work is judged
against — ``repro profile --counters`` renders it.

Design constraints (enforced by ``tests/test_perfcounters.py``):

* **Compiled out by default.**  With ``REPRO_PERF`` unset no
  :class:`PerfCounters` object is ever constructed and the hot paths see
  only ``perf is None`` / ``clock is None`` branches — zero new
  allocations per cycle (the PERF001–003 lint rules stay clean on the
  instrumented code).
* **Host-side only.**  Counter values and phase times never reach
  ``SimResult.metrics``, the determinism chain, ``result_fingerprint``,
  streamed telemetry bytes, or the engine cache key.  They land on the
  dedicated ``SimResult.host_perf`` side channel, which the fingerprint
  deliberately ignores, so a ``REPRO_PERF=1`` run is bit-identical to an
  unperfed one on every engine.
* **Integer counters, monotonic clock.**  Wall-clock attribution uses
  :func:`repro.util.hostclock.now_ns` — the single sanctioned clock API.
"""

from __future__ import annotations

import os

#: Counter fields, their display order, and what each one counts.
FIELDS = (
    ("visited_cycles", "engine loop iterations (cycles actually visited)"),
    ("event_pushes", "event-queue schedules"),
    ("event_pops", "event-queue callbacks fired"),
    ("heap_pushes", "core wake-heap pushes"),
    ("heap_stale_drops", "core wake-heap lazy invalidations dropped"),
    ("wake_hook_fires", "core wake hooks fired (early un-skips)"),
    ("chan_wake_republishes", "DRAM channel wake republishes"),
    ("skip_windows", "core skip windows entered"),
    ("skip_cycles_planned", "cycles covered by bounded skip windows"),
    ("skip_forever", "skip windows with no self-wake (external only)"),
)

#: Engine-phase keys for wall-clock attribution, in loop order.
PHASES = ("events", "memory", "cores", "telemetry")

_SENTINEL_WAKE = 1 << 61  # skip_until values past this are "forever"


def enabled() -> bool:
    """``REPRO_PERF=1`` turns the counters on (default: off)."""
    return os.environ.get("REPRO_PERF", "") not in ("", "0")


class PerfCounters:
    """One run's host-side counters.  Plain int fields, no containers."""

    __slots__ = tuple(name for name, _ in FIELDS) + tuple(
        f"ns_{phase}" for phase in PHASES
    )

    def __init__(self):
        for name, _ in FIELDS:
            setattr(self, name, 0)
        for phase in PHASES:
            setattr(self, f"ns_{phase}", 0)

    @classmethod
    def from_env(cls) -> "PerfCounters | None":
        """A fresh counter set iff ``REPRO_PERF`` is on, else None."""
        return cls() if enabled() else None

    def note_skip(self, skip_until: int, now: int) -> None:
        """Record one skip window entered at ``now``."""
        self.skip_windows += 1
        if skip_until >= _SENTINEL_WAKE:
            self.skip_forever += 1
        else:
            self.skip_cycles_planned += skip_until - now

    def snapshot(self) -> dict:
        """Plain-data form for ``SimResult.host_perf``."""
        counters = {name: getattr(self, name) for name, _ in FIELDS}
        phases = {phase: getattr(self, f"ns_{phase}") for phase in PHASES}
        return {"version": 1, "counters": counters, "phase_ns": phases}


def render(host_perf: dict | None, wall_seconds: float = 0.0) -> str:
    """Human-readable table of a ``SimResult.host_perf`` snapshot."""
    if not host_perf:
        return ("no host perf counters on this result "
                "(run with REPRO_PERF=1 / repro profile --counters)")
    lines = ["host perf counters (REPRO_PERF=1, host-side only):"]
    counters = host_perf.get("counters", {})
    for name, description in FIELDS:
        if name in counters:
            lines.append(f"  {name:<22} {counters[name]:>14,}  {description}")
    phases = host_perf.get("phase_ns", {})
    total_ns = sum(phases.values())
    if total_ns:
        lines.append("")
        lines.append("engine phase wall-clock attribution:")
        for phase in PHASES:
            ns = phases.get(phase, 0)
            share = 100.0 * ns / total_ns
            bar = "#" * max(1, int(share / 2)) if ns else ""
            lines.append(
                f"  {phase:<10} {ns / 1e9:>8.3f}s  {share:>5.1f}%  {bar}"
            )
        if wall_seconds:
            covered = 100.0 * total_ns / 1e9 / wall_seconds
            lines.append(
                f"  (phases cover {covered:.0f}% of {wall_seconds:.3f}s "
                f"total wall; the rest is setup/teardown)"
            )
    return "\n".join(lines)
