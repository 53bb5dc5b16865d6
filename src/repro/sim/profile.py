"""Engine comparison: ``python -m repro profile``.

Runs the same workload once per engine (``--engines``, default ``all``:
every registered engine) and reports wall clock, cycles/second, and
speedup over the naive reference (or the first engine listed when naive
is absent), and which core, cache hierarchy, event queue and DRAM
controller ran them: ``compiled`` when the core's per-cycle stages (the
hierarchy's per-access path, the queue's heap, the controller's per-edge
path) ran in its kernel, ``python`` on their Python bodies.  It also
reports which loop ran each run's cycles (``loop``, with the cycles each
path took in ``loop_cycles``): ``compiled`` when all of them ran in the
event kernel's cycle loop, ``python`` when all ran in a Python loop (the
batched engine's, or the naive engine's body), else ``mixed``.
The runs must also agree on the determinism chain and result
fingerprint, so the comparison doubles as a cheap cross-engine identity
check; the command exits 1 when they diverge, and when a run stopped at
the livelock cap (its cycle count then measures the cap, not the
machine).

Per-layer host time is billed from outside the package by the benchmark
tracer (``bench/spans.py``); ad-hoc profiling is
``python -m cProfile -m repro run ...``.

Wall-clock reads in this module are observability only — they go
through :mod:`repro.util.hostclock` and are reported, never fed back
into simulated state.
"""

from __future__ import annotations

import dataclasses
import json
import sys

from repro.util import hostclock


def compare_engines(spec, engines: str = "all") -> dict:
    """Run ``spec`` once per requested engine and cross-check
    det-chains/fingerprints while comparing wall clocks.

    Each engine runs as ``dataclasses.replace(spec, engine=...)`` through
    :func:`repro.sim.engine.run_one`; ``engines`` is a comma-separated
    list, or ``all`` to enumerate every registered loop implementation
    (:data:`repro.sim.system.ENGINES`), so new engines join the
    comparison automatically.  Speedups are reported against the
    ``naive`` run when present (the reference implementation), falling
    back to the first engine listed.
    """
    from repro.cache import hierarchy
    from repro.cpu import core
    from repro.dram import controller
    from repro.sim import engine, events, runner
    from repro.sim import system as system_mod
    from repro.sim.stats import result_fingerprint
    from repro.sim.system import ENGINES

    if engines.strip() in ("all", "*"):
        names = list(ENGINES)
    else:
        names = [e.strip() for e in engines.split(",") if e.strip()]
    runs = []
    for name in names:
        pinned = dataclasses.replace(spec, engine=name)
        # Read the fingerprint under the run's REPRO_ENGINE as well, as a
        # statistic that depends on the engine would be read.
        totals = dict(system_mod.loop_totals)
        with engine.exported(pinned):
            start = hostclock.now()
            result = engine.run_one(pinned)
            wall = hostclock.now() - start
            fingerprint = result_fingerprint(result)
        loop_cycles = {
            path: system_mod.loop_totals[path] - cycles
            for path, cycles in totals.items()
        }
        runs.append(
            {
                "engine": name,
                "loop": _loop_taken(loop_cycles),
                "loop_cycles": loop_cycles,
                "wall_seconds": round(wall, 4),
                "cycles": result.cycles,
                "hit_max_cycles": result.hit_max_cycles,
                "cycles_per_second": round(
                    result.cycles / wall if wall else 0.0, 1
                ),
                "det_chain": result.det_chain,
                "fingerprint": fingerprint,
            }
        )

    reference = next((r for r in runs if r["engine"] == "naive"), runs[0])
    for run in runs:
        run["speedup"] = round(
            reference["wall_seconds"] / run["wall_seconds"], 2
        ) if run["wall_seconds"] else 0.0
        run["identical"] = (
            run["det_chain"] == reference["det_chain"]
            and run["fingerprint"] == reference["fingerprint"]
        )
    report = {
        "label": f"{spec.workload}/{spec.scheduler}",
        "core": core.implementation(),
        "cache": hierarchy.implementation(),
        "events": events.implementation(),
        "dram": controller.implementation(),
        "loop": system_mod.loop_implementation(),
        "max_cycles": runner._max_cycles(spec.scale),
        "runs": [
            {k: v for k, v in run.items() if k != "fingerprint"}
            for run in runs
        ],
        "identical": all(run["identical"] for run in runs),
    }
    return report


def _loop_taken(loop_cycles: dict) -> str:
    """``compiled`` or ``python`` when one path ran every cycle, else
    ``mixed``."""
    ran = [path for path, cycles in loop_cycles.items() if cycles]
    return ran[0] if len(ran) == 1 else "mixed"


def _print_comparison(report: dict) -> None:
    print(f"{report['label']}: engine comparison on the {report['core']} "
          f"core and the {report['cache']} cache hierarchy, with the "
          f"{report['events']} event queue, the {report['dram']} DRAM "
          f"controller and the {report['loop']} cycle loop")
    print(f"  {'engine':<8} {'loop':<9} {'wall':>8} {'cycles/s':>12} "
          f"{'speedup':>8}  identical")
    for run in report["runs"]:
        print(f"  {run['engine']:<8} {run['loop']:<9} "
              f"{run['wall_seconds']:>7.2f}s "
              f"{run['cycles_per_second']:>12,.0f} {run['speedup']:>7.2f}x  "
              f"{'yes' if run['identical'] else 'NO — DIVERGED'}")
    if not report["identical"]:
        print("engine comparison FAILED: results diverged")


def _capped(report: dict, scale) -> bool:
    """True, after naming each on stderr, if any engine's run stopped at
    the livelock cap (worded as the other commands word it)."""
    from repro.sim.runner import livelock_message

    capped = [run for run in report["runs"] if run["hit_max_cycles"]]
    for run in capped:
        label = f"{report['label']} ({run['engine']} engine)"
        print(f"error: {livelock_message(label, run['cycles'], scale)}",
              file=sys.stderr)
    return bool(capped)


def main(args, spec) -> int:
    """Entry point for ``python -m repro profile``: ``spec`` is the run
    the command line names."""
    report = compare_engines(spec, args.engines)
    _print_comparison(report)
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(report, fh, indent=2)
        print(f"\nreport -> {args.json}")
    capped = _capped(report, spec.scale)
    return 0 if report["identical"] and not capped else 1
