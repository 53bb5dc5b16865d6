"""Command-line interface.

    python -m repro list                       # workloads, schedulers, experiments
    python -m repro run fft --scheduler casras-crit --cbp 64
    python -m repro experiment fig4 [--markdown] [--csv]
    python -m repro experiment all             # regenerate everything
    python -m repro lint [paths...]            # simulator-specific AST lint
    python -m repro analyze [paths...]         # whole-program semantic analysis
    python -m repro check-determinism fft      # cross-mode/-process chains
    python -m repro profile fft                # engine timing + identity
    python -m repro stats fft --sample-every 256   # telemetry summaries
    python -m repro trace fft --out timeline.json  # Chrome/Perfetto trace

``run``, ``stats``, ``trace`` and ``experiment`` accept engine flags:
``--engine naive|batched`` (loop implementation) and ``--verify-skip``
(run everything on both engines and assert bit-identical results);
``experiment`` also takes ``--jobs N`` (worker processes) and
``--no-cache`` (bypass the on-disk result cache).  Each is the CLI face
of the corresponding ``REPRO_*`` environment variable.
"""

from __future__ import annotations

import argparse
import os
import sys


def _apply_engine_flags(args) -> None:
    """Translate engine CLI flags into the env vars the runner reads."""
    if getattr(args, "jobs", None) is not None:
        os.environ["REPRO_JOBS"] = str(args.jobs)
    if getattr(args, "no_cache", False):
        os.environ["REPRO_NO_CACHE"] = "1"
    if getattr(args, "engine", None):
        os.environ["REPRO_ENGINE"] = args.engine
    if getattr(args, "verify_skip", False):
        os.environ["REPRO_VERIFY_SKIP"] = "1"


def _add_engine_choice(parser: argparse.ArgumentParser, text: str) -> None:
    from repro.sim.system import ENGINES

    parser.add_argument("--engine", default=None, choices=ENGINES,
                        help=f"{text} (env REPRO_ENGINE)")


def _add_engine_flags(parser: argparse.ArgumentParser) -> None:
    _add_engine_choice(parser, "simulation loop: naive cycle-by-cycle "
                               "(the reference and the default; its cycles "
                               "run in a compiled loop where the kernels "
                               "build) or batched (windowed models) — "
                               "bit-identical")
    parser.add_argument("--verify-skip", action="store_true",
                        help="cross-check every run against the other "
                             "engine (env REPRO_VERIFY_SKIP)")


def _positive_int(text: str) -> int:
    """argparse type for a count that must be at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {text!r}"
        ) from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _cmd_list(args) -> int:
    from repro.experiments.registry import EXPERIMENTS
    from repro.sched.registry import SCHEDULERS
    from repro.workloads.multiprog import BUNDLES
    from repro.workloads.parallel import PARALLEL_APP_NAMES

    print("Parallel workloads :", ", ".join(PARALLEL_APP_NAMES))
    print("Bundles            :", ", ".join(sorted(BUNDLES)))
    print("Schedulers         :", ", ".join(sorted(SCHEDULERS)))
    print("Experiments        :", ", ".join(sorted(EXPERIMENTS)))
    return 0


def _spec(args):
    """The ``RunSpec`` of the parallel run a single-run command names
    (no CBP when ``--cbp`` is 0 or absent; a tenth of warm-up)."""
    from repro.config import SimScale
    from repro.sim.engine import RunSpec

    cbp = getattr(args, "cbp", 0)
    return RunSpec(
        kind="parallel",
        workload=args.app,
        scheduler=args.scheduler,
        provider_spec=("cbp", {"entries": cbp}) if cbp else None,
        scale=SimScale(
            instructions_per_core=args.instructions,
            warmup_instructions=max(200, args.instructions // 10),
            seed=args.seed,
        ),
    )


def _cmd_run(args) -> int:
    import dataclasses

    from repro.sim.engine import run_one
    from repro.sim.stats import speedup

    spec = _spec(args)
    base = run_one(
        dataclasses.replace(spec, scheduler="fr-fcfs", provider_spec=None)
    )
    result = run_one(spec)
    if _capped((base, result), spec.scale):
        return 1
    print(f"{args.app} / fr-fcfs      : {base.cycles:,} cycles "
          f"(IPC {base.system_ipc:.2f})")
    print(f"{args.app} / {args.scheduler:<12}: {result.cycles:,} cycles "
          f"(IPC {result.system_ipc:.2f})")
    print(f"speedup: {speedup(base, result):.3f}x")
    return 0


def _cmd_experiment(args) -> int:
    from repro.experiments.registry import EXPERIMENTS, run_experiment
    from repro.sim.report import to_csv, to_markdown

    ids = sorted(EXPERIMENTS) if args.id == "all" else [args.id]
    for experiment_id in ids:
        result = run_experiment(experiment_id)
        if args.markdown:
            print(to_markdown(result))
        elif args.csv:
            print(to_csv(result), end="")
        else:
            print(result.table())
        print()
    return 0


def _cmd_check_determinism(args) -> int:
    from repro.sim.engine import verify_determinism

    report = verify_determinism(_spec(args), subprocess=not args.no_subprocess)
    chain = report["chain"]
    chain_text = f"{chain:#018x}" if chain is not None else "disabled"
    print(f"{report['label']}: {report['cycles']:,} cycles, chain {chain_text}")
    for entry in report["runs"]:
        verdict = "ok" if entry["ok"] else "DIVERGED"
        line = f"  vs {entry['name']:<20}: {verdict}"
        if not entry["ok"]:
            where = entry.get("first_divergence")
            if where:
                line += f" (first divergence at cycle {where['cycle']})"
            else:
                line += " (chains agree; divergence is in statistics)"
        print(line)
    if not report["ok"]:
        print("determinism check FAILED")
        return 1
    print("determinism check passed")
    return 0


def _capped(results, scale) -> bool:
    """True, after naming each on stderr, if any run stopped at the
    livelock cap: its cycle count measures the cap, not the machine."""
    from repro.sim.runner import livelock_message

    capped = [result for result in results if result.hit_max_cycles]
    for result in capped:
        print(f"error: {livelock_message(result.label, result.cycles, scale)}",
              file=sys.stderr)
    return bool(capped)


def _run_for_telemetry(args):
    """Run one workload for the stats/trace commands; returns the result,
    or None if it stopped at the livelock cap (see :func:`_capped`)."""
    from repro.sim.engine import run_one

    spec = _spec(args)
    result = run_one(spec)
    return None if _capped((result,), spec.scale) else result


def _cmd_stats(args) -> int:
    from repro.sim.report import (
        histogram_ascii,
        telemetry_markdown,
        timeseries_to_csv,
    )

    if args.sample_every:
        os.environ["REPRO_SAMPLE_EVERY"] = str(args.sample_every)
    result = _run_for_telemetry(args)
    if result is None:
        return 1

    if args.csv:
        print(timeseries_to_csv(result), end="")
        return 0

    print(f"{result.label}: {result.cycles:,} cycles, "
          f"IPC {result.system_ipc:.2f}")
    print()
    print(telemetry_markdown(result))
    if args.shapes:
        for name, value in result.metrics.items():
            if isinstance(value, dict) and "buckets" in value:
                print(f"\n{name}:")
                print(histogram_ascii(value))
    if result.sample_cycles:
        print(f"\n{len(result.sample_cycles)} samples x "
              f"{len(result.timeseries)} series "
              f"(every {args.sample_every or 'REPRO_SAMPLE_EVERY'} cycles); "
              f"use --csv to dump them")
    if result.trace_dropped:
        total = len(result.trace_events) + result.trace_dropped
        print(f"warning: event-trace ring wrapped — the oldest "
              f"{result.trace_dropped:,} events were dropped, so the "
              f"trace covers only a tail window of the run (metrics "
              f"above are unaffected); set REPRO_TRACE_CAP={total} to "
              f"keep every event", file=sys.stderr)
    return 0


def _cmd_trace(args) -> int:
    import json

    from repro.telemetry.trace import (
        to_chrome_trace,
        to_jsonl,
        validate_chrome_trace,
    )

    os.environ["REPRO_TRACE"] = "1"
    if args.cap is not None:
        os.environ["REPRO_TRACE_CAP"] = str(args.cap)
    result = _run_for_telemetry(args)
    if result is None:
        return 1

    doc = to_chrome_trace(
        result.trace_events, label=result.label,
        dropped=result.trace_dropped,
    )
    problems = validate_chrome_trace(doc)
    if problems:
        for problem in problems:
            print(f"invalid trace event: {problem}", file=sys.stderr)
        return 1
    with open(args.out, "w") as fh:
        json.dump(doc, fh)
    dropped = f" ({result.trace_dropped} dropped)" if result.trace_dropped else ""
    print(f"{len(result.trace_events)} events{dropped} -> {args.out} "
          f"(load in Perfetto / chrome://tracing)")
    if result.trace_dropped:
        total = len(result.trace_events) + result.trace_dropped
        print(f"warning: ring wrapped; {args.out} is a tail window "
              f"(otherData.truncated = true) — rerun with --cap {total} "
              f"to keep every event", file=sys.stderr)
    if args.jsonl:
        with open(args.jsonl, "w") as fh:
            fh.write(to_jsonl(result.trace_events))
        print(f"raw events -> {args.jsonl}")
    return 0


def _cmd_profile(args) -> int:
    from repro.sim.profile import main as profile_main

    return profile_main(args, _spec(args))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Criticality-aware memory scheduling (ISCA 2013) reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list workloads, schedulers, experiments")

    run_p = sub.add_parser("run", help="run one parallel workload")
    run_p.add_argument("app")
    run_p.add_argument("--scheduler", default="casras-crit")
    run_p.add_argument("--cbp", type=int, default=64,
                       help="CBP entries (0 disables the predictor)")
    run_p.add_argument("--instructions", type=int, default=12_000)
    run_p.add_argument("--seed", type=int, default=1)
    _add_engine_flags(run_p)

    exp_p = sub.add_parser("experiment", help="regenerate a figure/table")
    exp_p.add_argument("id", help="experiment id (e.g. fig4) or 'all'")
    exp_p.add_argument("--markdown", action="store_true")
    exp_p.add_argument("--csv", action="store_true")
    exp_p.add_argument("--jobs", type=int, default=None, metavar="N",
                       help="worker processes for batched runs "
                            "(default: all CPUs; env REPRO_JOBS)")
    exp_p.add_argument("--no-cache", action="store_true",
                       help="bypass the on-disk result cache "
                            "(env REPRO_NO_CACHE)")
    _add_engine_flags(exp_p)

    # lint and analyze declare their own options; main() forwards the
    # rest of argv to them, so these entries only document the commands.
    sub.add_parser("lint", add_help=False,
                   help="run the simulator-specific AST lint pass")
    sub.add_parser("analyze", add_help=False,
                   help="run the whole-program semantic analyzer (cycle "
                        "domains, det-state coverage, effect/purity "
                        "certificates)")

    stats_p = sub.add_parser(
        "stats", help="run one workload and print telemetry summaries"
    )
    stats_p.add_argument("app")
    stats_p.add_argument("--scheduler", default="fr-fcfs")
    stats_p.add_argument("--cbp", type=int, default=64,
                         help="CBP entries (0 disables the predictor)")
    stats_p.add_argument("--instructions", type=int, default=8_000)
    stats_p.add_argument("--seed", type=int, default=1)
    stats_p.add_argument("--sample-every", type=int, default=0, metavar="N",
                         help="interval-sample every N cycles "
                              "(env REPRO_SAMPLE_EVERY)")
    stats_p.add_argument("--csv", action="store_true",
                         help="dump the sampled time-series as CSV")
    stats_p.add_argument("--shapes", action="store_true",
                         help="print ASCII histogram shapes")
    _add_engine_flags(stats_p)

    trace_p = sub.add_parser(
        "trace", help="run one workload with the event trace enabled"
    )
    trace_p.add_argument("app")
    trace_p.add_argument("--scheduler", default="fr-fcfs")
    trace_p.add_argument("--cbp", type=int, default=64,
                         help="CBP entries (0 disables the predictor)")
    trace_p.add_argument("--instructions", type=int, default=4_000)
    trace_p.add_argument("--seed", type=int, default=1)
    trace_p.add_argument("--out", default="timeline.json",
                         help="Chrome trace_event JSON output path")
    trace_p.add_argument("--jsonl", default=None, metavar="PATH",
                         help="also write raw events as JSON lines")
    trace_p.add_argument("--cap", type=_positive_int, default=None,
                         metavar="N",
                         help="ring-buffer capacity, at least 1 "
                              "(env REPRO_TRACE_CAP)")
    _add_engine_flags(trace_p)

    prof_p = sub.add_parser(
        "profile",
        help="time one workload run per engine and check they agree",
    )
    prof_p.add_argument("app", help="parallel workload to time")
    prof_p.add_argument("--scheduler", default="fr-fcfs")
    prof_p.add_argument("--cbp", type=int, default=0,
                        help="CBP entries (0 disables the predictor)")
    prof_p.add_argument("--instructions", type=int, default=12_000)
    prof_p.add_argument("--seed", type=int, default=1)
    prof_p.add_argument("--engines", default="all", metavar="A,B,...",
                        help="engines to time; speedups are reported vs "
                             "naive ('all', the default, enumerates every "
                             "registered engine)")
    prof_p.add_argument("--json", default=None, metavar="PATH",
                        help="also write the report as JSON")

    det_p = sub.add_parser(
        "check-determinism",
        help="compare determinism hash-chains across loop modes and processes",
    )
    det_p.add_argument("app", help="parallel workload to check")
    det_p.add_argument("--scheduler", default="fr-fcfs")
    det_p.add_argument("--instructions", type=int, default=4_000)
    det_p.add_argument("--seed", type=int, default=1)
    det_p.add_argument("--no-subprocess", action="store_true",
                       help="skip the fresh-subprocess comparison")
    _add_engine_choice(det_p, "reference loop for the comparison")

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # Dispatch before parsing: argparse.REMAINDER would reject a leading
    # option such as `repro lint --list-rules`.
    if argv[:1] == ["lint"]:
        from repro.analysis.lint import main as lint_main

        return lint_main(argv[1:])
    if argv[:1] == ["analyze"]:
        from repro.analysis.semantic import main as analyze_main

        return analyze_main(argv[1:])
    args = build_parser().parse_args(argv)
    _apply_engine_flags(args)
    handlers = {
        "list": _cmd_list,
        "run": _cmd_run,
        "experiment": _cmd_experiment,
        "stats": _cmd_stats,
        "trace": _cmd_trace,
        "profile": _cmd_profile,
        "check-determinism": _cmd_check_determinism,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
