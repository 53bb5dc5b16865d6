"""One benchmark pass in a fresh interpreter.

Run by ``run.py`` as ``python3 bench/child.py '<json request>'`` with the
checkout root as working directory, ``src`` on ``PYTHONPATH`` and every
``REPRO_*`` variable removed except the workload's own.  Prints one JSON
record as its last line of standard output.

The request names the workload, seed and scale, the pass ``mode``
(``import``: import and exit, which compiles bytecode ahead of timed
passes; ``cold``: empty result cache; ``warm``: the cache a cold pass
filled), whether to trace layers, and ``spawned``, the parent's
``CLOCK_MONOTONIC`` reading just before starting this process — the clock
is system-wide, so interpreter start-up and imports are measured from it.
"""

import hashlib
import json
import os
import resource
import sys
import tempfile
import time
import traceback
from pathlib import Path

import repro
import repro.experiments.fig4  # noqa: F401  start-up, not pass time
from repro.experiments.common import clear_run_cache
from repro.sim import engine
from repro.sim.stats import result_fingerprint
from repro.telemetry.trace import validate_chrome_trace
from repro.workloads.synthetic import clear_trace_cache

import hostspeed
import spans
import suite

_IMPORTED = time.clock_gettime(time.CLOCK_MONOTONIC)

#: Probes just before and just after a pass, for the work outside
#: simulations (start-up, warm passes), which the sampler does not see.
EDGE_PROBES = 20


def digest(result) -> str:
    """Short digest of everything a run measured (its result fingerprint)."""
    return hashlib.sha256(repr(result_fingerprint(result)).encode()).hexdigest()[:16]


def _runs_of_pass(expected) -> tuple[list[dict], list[str]]:
    """Check the pass's simulations; returns (runs, failures).

    The runs are the engine's per-run records of this pass, first
    occurrence per cache key, in run order.  Each result is read back from
    the disk cache, which is also what a later warm pass reads.
    """
    seen = {}
    for metric in engine.last_metrics:
        seen.setdefault(metric["key"], metric)
    runs, failures = [], []
    if len(seen) != len(expected):
        failures.append(f"{len(seen)} runs, expected {len(expected)}")
    for index, (metric, want) in enumerate(zip(seen.values(), expected)):
        cell = f"{index:02d} {metric['label']}"
        result = engine.load_cached(metric["key"])
        if result is None:
            failures.append(f"{cell}: result missing from the cache")
            continue
        if result.hit_max_cycles:
            failures.append(f"{cell}: hit the cycle cap")
        if list(result.committed) != want:
            failures.append(
                f"{cell}: committed {list(result.committed)}, trace lengths {want}"
            )
        runs.append({
            "cell": cell,
            "source": metric["source"],
            "digest": digest(result),
            "cycles": result.cycles,
            "committed": list(result.committed),
            "reads": sum(ch.reads_done for ch in result.channels),
            "writes": sum(ch.writes_done for ch in result.channels),
            "wall_s": result.wall_seconds,
        })
    return runs, failures


def run_pass(request: dict) -> dict:
    """Run the requested pass in this process and return its record."""
    workload = suite.WORKLOADS[request["workload"]]
    seed, quick = request["seed"], request["quick"]
    # No-ops in a fresh process; they keep repeated in-process passes
    # (the tests) from reusing an earlier pass's memoised work.
    clear_run_cache()
    clear_trace_cache()
    engine.clear_metrics()
    before = hostspeed.probes(EDGE_PROBES)
    cache = Path(os.environ["REPRO_CACHE_DIR"])
    cache.mkdir(parents=True, exist_ok=True)
    speed_dir = Path(tempfile.mkdtemp(dir=cache))
    run_one = engine.run_one
    engine.run_one = hostspeed.sampling(run_one, speed_dir)
    tracer = spans.Tracer()
    tracer.install(spans.targets(setup_only=not request["traced"]))
    try:
        start = time.perf_counter()
        fig = suite.run_pass(workload, seed, quick)
        pass_s = time.perf_counter() - start
    finally:
        tracer.uninstall()
        engine.run_one = run_one
    after = hostspeed.probes(EDGE_PROBES)
    during = hostspeed.collected(speed_dir)

    runs, failures = _runs_of_pass(suite.expected_commits(workload, seed, quick))
    simulated = [r for r in runs if r["source"] == "run"]
    sim_wall = sum(r["wall_s"] for r in simulated)
    record = {
        "speed_before": hostspeed.factor(before),
        "speed_edges": hostspeed.factor(before + after),
        "speed_during": hostspeed.factor(during) if during else None,
        "probes_during": len(during),
        "pass_s": pass_s,
        "gen_s": tracer.inclusive_s("parallel.generate_trace")
        + tracer.inclusive_s("multiprog.generate_trace"),
        "build_s": tracer.inclusive_s("System.__init__"),
        "sim_wall_s": sim_wall,
        "sim_cycles": sum(r["cycles"] for r in simulated),
        "sim_instructions": sum(sum(r["committed"]) for r in simulated),
        "runs": runs,
        "failures": failures,
        "rss_mb": max(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        ) / 1024,
    }
    if fig is not None:
        record["table"] = fig.table()
        record["fig4_average"] = {
            row["predictor"]: row["Average"] for row in fig.rows
        }
    if request["traced"]:
        record["per_layer"] = spans.per_layer_metrics(tracer, pass_s, runs)
        record["layers"] = tracer.detail()
        out = request.get("chrome_trace")
        if out:
            doc = tracer.chrome_trace()
            record["chrome_trace_problems"] = validate_chrome_trace(doc)[:5]
            Path(out).parent.mkdir(parents=True, exist_ok=True)
            Path(out).write_text(json.dumps(doc))
    return record


def main(argv) -> int:
    request = json.loads(argv[1])
    record = {"import_s": _IMPORTED - request["spawned"]}
    src = Path(repro.__file__).resolve().parent.parent
    if src != Path("src").resolve():
        record["error"] = f"imported repro from {src}, not from this checkout"
        print(json.dumps(record))
        return 1
    if request["mode"] != "import":
        try:
            record.update(run_pass(request))
        except Exception:  # the parent counts the pass as failed
            record["error"] = traceback.format_exc()
            print(json.dumps(record))
            return 1
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
