#!/usr/bin/env python3
"""Telemetry smoke check: traced + sampled run must produce valid output,
and the disabled knobs must keep the hot loop untouched.

Three gates, run by CI's ``telemetry`` job:

1. A short run with ``REPRO_TRACE=1`` and ``REPRO_SAMPLE_EVERY`` set must
   yield a Chrome ``trace_event`` document that passes
   :func:`repro.telemetry.trace.validate_chrome_trace`, non-empty latency
   histograms, and an aligned sample/time-series matrix.
2. The same run with telemetry disabled must carry *no* telemetry
   artifacts (empty series and trace) — the knobs actually gate.
3. Hot-loop work behind a disabled knob: where the compiled cycle loop
   is available (``repro.sim.system.loop_implementation()``), the
   telemetry-disabled run and a trace-only run (``REPRO_TRACE=1``, no
   sampler) must run every cycle on it — their ``loop_totals`` deltas
   count no Python-loop cycle.  Only a sampler sends a run to the Python
   loop.

The disabled run is repeated three times and its wall-clock spread
printed, for information only.

    python tools/telemetry_smoke.py [--app fft] [--instructions 2000]
"""

import argparse
import json
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def _run(app, instructions):
    from repro.config import SimScale
    from repro.sim.runner import run_parallel_workload

    scale = SimScale(
        instructions_per_core=instructions,
        warmup_instructions=max(200, instructions // 10),
    )
    return run_parallel_workload(app, scale=scale)


def traced_run_is_valid(app, instructions) -> int:
    from repro.telemetry.trace import to_chrome_trace, validate_chrome_trace

    os.environ["REPRO_TRACE"] = "1"
    os.environ["REPRO_SAMPLE_EVERY"] = "256"
    try:
        result = _run(app, instructions)
    finally:
        del os.environ["REPRO_TRACE"]
        del os.environ["REPRO_SAMPLE_EVERY"]

    failures = 0
    doc = to_chrome_trace(result.trace_events, label=result.label)
    problems = validate_chrome_trace(doc)
    if problems:
        for problem in problems[:10]:
            print(f"FAIL trace schema: {problem}")
        failures += 1
    else:
        json.dumps(doc)
        print(f"ok   chrome trace valid ({len(result.trace_events)} events, "
              f"{result.trace_dropped} dropped)")

    histograms = [
        (name, value)
        for name, value in result.metrics.items()
        if isinstance(value, dict) and "p99" in value
    ]
    populated = [name for name, value in histograms if value["count"]]
    if not populated:
        print("FAIL every latency histogram is empty")
        failures += 1
    else:
        print(f"ok   {len(populated)}/{len(histograms)} histograms populated "
              f"({', '.join(populated[:3])}, ...)")

    if not result.sample_cycles:
        print("FAIL interval sampler produced no samples")
        failures += 1
    elif any(len(series) != len(result.sample_cycles)
             for series in result.timeseries.values()):
        print("FAIL time-series lengths disagree with sample cycles")
        failures += 1
    else:
        print(f"ok   {len(result.sample_cycles)} samples x "
              f"{len(result.timeseries)} series")
    return failures


def _timed_run(app, instructions):
    """One run: its result, host wall seconds, and the cycles it put on
    each loop (the ``loop_totals`` delta)."""
    from repro.sim import system

    before = dict(system.loop_totals)
    # repro-lint: disable=DET002 host wall-clock is the quantity under test
    t0 = time.perf_counter()
    result = _run(app, instructions)
    # repro-lint: disable=DET002 host wall-clock is the quantity under test
    wall = time.perf_counter() - t0
    loops = {path: system.loop_totals[path] - before[path] for path in before}
    return result, wall, loops


def disabled_run_is_clean(app, instructions) -> int:
    """Gate 2, and the wall-clock spread of three disabled runs."""
    for knob in ("REPRO_TRACE", "REPRO_SAMPLE_EVERY"):
        os.environ.pop(knob, None)

    failures = 0
    walls = []
    for _ in range(3):
        result, wall, _ = _timed_run(app, instructions)
        walls.append(wall)

    if result.sample_cycles or result.timeseries or result.trace_events:
        print("FAIL disabled telemetry still produced artifacts")
        failures += 1
    else:
        print("ok   disabled path carries no telemetry artifacts")
    print(f"info wall clocks {', '.join(f'{w:.3f}s' for w in walls)} "
          f"(spread {max(walls) / min(walls):.2f}x)")
    return failures


def untraced_loops_stay_compiled(app, instructions) -> int:
    """Gate 3: no Python-loop cycle without a sampler."""
    from repro.sim.system import loop_implementation

    if loop_implementation() != "compiled":
        print("skip compiled-loop gate: the cycle loop's kernels are not "
              "loaded, so every run takes the Python loop")
        return 0
    # Knobs that move a run off the compiled loop on purpose.
    for knob in ("REPRO_SAMPLE_EVERY", "REPRO_ENGINE", "REPRO_VERIFY_SKIP"):
        os.environ.pop(knob, None)

    failures = 0
    for name, trace in (("telemetry disabled", None), ("trace only", "1")):
        if trace is not None:
            os.environ["REPRO_TRACE"] = trace
        try:
            _, _, loops = _timed_run(app, instructions)
        finally:
            os.environ.pop("REPRO_TRACE", None)
        if loops["python"] or not loops["compiled"]:
            print(f"FAIL {name}: {loops['python']:,} of "
                  f"{loops['python'] + loops['compiled']:,} cycles on the "
                  f"Python loop")
            failures += 1
        else:
            print(f"ok   {name}: all {loops['compiled']:,} cycles on the "
                  f"compiled loop")
    return failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--app", default="fft")
    parser.add_argument("--instructions", type=int, default=2_000)
    args = parser.parse_args()

    failures = traced_run_is_valid(args.app, args.instructions)
    failures += disabled_run_is_clean(args.app, args.instructions)
    failures += untraced_loops_stay_compiled(args.app, args.instructions)
    if failures:
        print(f"{failures} telemetry smoke failure(s)")
        return 1
    print("telemetry smoke passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
