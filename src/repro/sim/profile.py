"""Engine comparison: ``python -m repro profile``.

Runs the same workload once per engine (``--engines``, default ``all``:
every registered engine) and reports wall clock, cycles/second, and
speedup over the naive reference (or the first engine listed when naive
is absent).  The runs must also agree on the determinism chain and
result fingerprint, so the comparison doubles as a cheap cross-engine
identity check; the command exits 1 when they diverge.

Per-layer host time is billed from outside the package by the benchmark
tracer (``bench/spans.py``); ad-hoc profiling is
``python -m cProfile -m repro run ...``.

Wall-clock reads in this module are observability only — they go
through :mod:`repro.util.hostclock` and are reported, never fed back
into simulated state.
"""

from __future__ import annotations

import json

from repro.config import SimScale
from repro.util import hostclock


def _run_workload(args):
    from repro.sim.runner import run_parallel_workload

    scale = SimScale(
        instructions_per_core=args.instructions,
        warmup_instructions=max(200, args.instructions // 10),
        seed=args.seed,
    )
    spec = ("cbp", {"entries": args.cbp}) if args.cbp else None
    return run_parallel_workload(
        args.app, scheduler=args.scheduler, provider_spec=spec, scale=scale
    )


def compare_engines(args) -> dict:
    """Run the workload once per requested engine and cross-check
    det-chains/fingerprints while comparing wall clocks.

    ``--engines all`` enumerates every registered loop implementation
    (:data:`repro.sim.system.ENGINES`) instead of a hand-maintained
    list, so new engines join the comparison automatically.  Speedups
    are reported against the ``naive`` run when present (the reference
    implementation), falling back to the first engine listed.
    """
    import os

    from repro.sim.stats import result_fingerprint
    from repro.sim.system import ENGINES

    if args.engines.strip() in ("all", "*"):
        engines = list(ENGINES)
    else:
        engines = [e.strip() for e in args.engines.split(",") if e.strip()]
    runs = []
    saved = os.environ.get("REPRO_ENGINE")
    try:
        for engine in engines:
            os.environ["REPRO_ENGINE"] = engine
            start = hostclock.now()
            result = _run_workload(args)
            wall = hostclock.now() - start
            runs.append(
                {
                    "engine": engine,
                    "wall_seconds": round(wall, 4),
                    "cycles": result.cycles,
                    "cycles_per_second": round(
                        result.cycles / wall if wall else 0.0, 1
                    ),
                    "det_chain": result.det_chain,
                    "fingerprint": result_fingerprint(result),
                }
            )
    finally:
        if saved is None:
            os.environ.pop("REPRO_ENGINE", None)
        else:
            os.environ["REPRO_ENGINE"] = saved

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
        "label": f"{args.app}/{args.scheduler}",
        "runs": [
            {k: v for k, v in run.items() if k != "fingerprint"}
            for run in runs
        ],
        "identical": all(run["identical"] for run in runs),
    }
    return report


def _print_comparison(report: dict) -> None:
    print(f"{report['label']}: engine comparison")
    print(f"  {'engine':<8} {'wall':>8} {'cycles/s':>12} {'speedup':>8}  identical")
    for run in report["runs"]:
        print(f"  {run['engine']:<8} {run['wall_seconds']:>7.2f}s "
              f"{run['cycles_per_second']:>12,.0f} {run['speedup']:>7.2f}x  "
              f"{'yes' if run['identical'] else 'NO — DIVERGED'}")
    if not report["identical"]:
        print("engine comparison FAILED: results diverged")


def main(args) -> int:
    """Entry point for ``python -m repro profile``."""
    report = compare_engines(args)
    _print_comparison(report)
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(report, fh, indent=2)
        print(f"\nreport -> {args.json}")
    return 0 if report["identical"] else 1
