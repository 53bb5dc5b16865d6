"""Benchmark of the simulator: host time, throughput and per-layer cost.

Usage (from the root of a checkout)::

    python3 bench/run.py --workload parallel-busy --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all [--quick] [--out FILE]
    python3 bench/run.py compare PARENT.json CHANGE.json

One workload: repeats of the workload, each on inputs of its own
(``suite.pass_seed``), run for ``--seconds``; the last line of standard
output is a JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics`` — every end-to-end metric of ``BENCHMARK.json`` with
``--trace 0``, every per-layer metric with ``--trace 1`` (one traced pass
beside one untraced pass).  ``all``: every workload, 5 rounds of repeats
on the same inputs, interleaved round-robin so that drift of host speed
is shared, then one traced round; the full record is written to
``--out``.  ``--quick`` runs at a tenth of the scale, and ``all`` then
makes one round: the smoke test.

Every pass runs in a fresh interpreter (``child.py``) with all ``REPRO_*``
variables removed and only the workload's own settings applied, and with
a fresh result cache inside ``bench/out``.  Nothing is read or written
outside the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import report
import suite

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "out"
CHILD = ROOT / "bench" / "child.py"

#: Interleaved rounds of ``--workload all`` (one under ``--quick``).
ROUNDS = 5
#: Warm passes per repeat: each is short, so several fresh processes
#: give its median more samples for little time.
WARM_PASSES = 3
#: Time by which a one-workload invocation's children must have ended,
#: and the budget of the full suite.
RUN_BUDGET_S = 170.0
FULL_BUDGET_S = 1800.0
#: A timed invocation starts no repeat that would end after this.
REPEAT_BUDGET_S = 150.0
#: Repeats a timed one-workload invocation makes even past ``--seconds``.
MIN_REPEATS = 2


def _clock() -> float:
    # System-wide: children read the same clock to time their start-up.
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def scrubbed_env() -> tuple[dict, list[str]]:
    """The parent environment without any ``REPRO_*`` variable, and with
    the checkout's ``src`` as the only ``PYTHONPATH`` entry."""
    removed = sorted(k for k in os.environ if k.startswith("REPRO_"))
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = "src"
    return env, removed


def _speed(record: dict) -> float:
    """Speed factor of a cold pass: sampled during its simulations, or
    around it when they were too short to sample."""
    return record["speed_during"] or record["speed_edges"]


class Session:
    """Runs passes of the workloads and accumulates their results."""

    def __init__(self, seed: int, quick: bool, deadline: float):
        self.seed = seed
        self.quick = quick
        #: ``_clock()`` reading by which every child must have ended.
        self.deadline = deadline
        self.base_env, self.removed_env = scrubbed_env()
        self.meta = metadata()
        self.data = {
            name: {"samples": {}, "attempted": 0, "failed": 0,
                   "failures": [], "cells": {}, "child_env": {}}
            for name in suite.WORKLOADS
        }
        OUT.mkdir(parents=True, exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)

    # ------------------------------------------------------------- processes

    def spawn(self, name: str, mode: str, cache: Path, repeat: int, *,
              one_worker: bool = False, traced: bool = False) -> dict:
        """Run one pass of workload ``name`` in a fresh interpreter, on
        the inputs of the invocation's ``repeat``-th repeat."""
        workload = suite.WORKLOADS[name]
        env = dict(self.base_env)
        settings = suite.child_env(workload, self.quick, one_worker or traced)
        settings["REPRO_CACHE_DIR"] = str(cache.relative_to(ROOT))
        env.update(settings)
        config = "traced" if traced else "one worker" if one_worker else "timed"
        self.data[name]["child_env"][config] = {
            "PYTHONPATH": env["PYTHONPATH"], **settings,
            "REPRO_CACHE_DIR": "a fresh directory under bench/out",
        }
        request = {
            "workload": name, "seed": suite.pass_seed(self.seed, repeat),
            "quick": self.quick, "mode": mode, "traced": traced,
        }
        if traced:
            request["chrome_trace"] = str(OUT / f"trace-{name}.json")
        request["spawned"] = _clock()
        proc = subprocess.Popen(
            [sys.executable, str(CHILD), json.dumps(request)],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, start_new_session=True,
        )
        timeout = max(1.0, self.deadline - _clock())
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            return {"error": f"{mode} pass timed out after {timeout:.0f} s"}
        lines = out.strip().splitlines()
        try:
            record = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            record = {"error": f"no result (exit {proc.returncode}): {err[-2000:]}"}
        if proc.returncode and "error" not in record:
            record["error"] = f"exit {proc.returncode}: {err[-2000:]}"
        return record

    def fresh_cache(self) -> Path:
        return Path(tempfile.mkdtemp(prefix="cache-", dir=self.tmp))

    # ------------------------------------------------------------ accounting

    def _add(self, name: str, metric: str, value: float) -> None:
        self.data[name]["samples"].setdefault(metric, []).append(value)

    def check(self, name: str, record: dict, label: str, repeat: int) -> bool:
        """Count the pass's runs as attempted/failed; True if all passed.

        A run fails if the pass raised, if it hit the cycle cap or
        committed other than its trace lengths, or if its result digest
        differs from the same cell's in any other pass of this session on
        the same inputs (cold, warm, untraced, traced).  fig4 fails as a
        whole if its table text differs between such passes.
        """
        entry = self.data[name]
        expected = suite.run_count(suite.WORKLOADS[name])
        entry["attempted"] += expected
        if "error" in record:
            entry["failed"] += expected
            entry["failures"].append(f"{label}: {record['error'][-800:]}")
            return False
        failures = list(record["failures"])
        bad = {f.split(":", 1)[0] for f in failures}
        for run in record["runs"]:
            key = f"r{repeat} {run['cell']}"
            first = entry["cells"].setdefault(key, run["digest"])
            if first != run["digest"]:
                bad.add(run["cell"])
                failures.append(f"{run['cell']}: result digest changed")
        if "table" in record:
            tables = entry.setdefault("tables", {})
            first = tables.setdefault(f"r{repeat}", record["table"])
            if first != record["table"]:
                bad = {run["cell"] for run in record["runs"]}
                failures.append("fig4 table text changed")
        if record.get("chrome_trace_problems"):
            failures.append(f"chrome trace: {record['chrome_trace_problems']}")
            bad.add("chrome-trace")
        failed = min(expected, len(bad)) if failures else 0
        entry["failed"] += failed
        entry["failures"].extend(f"{label}: {f}" for f in failures)
        if "fig4_average" in record:
            entry.setdefault("fig4_average", record["fig4_average"])
        return not failures

    # --------------------------------------------------------------- passes

    def repeat(self, name: str, repeat: int) -> None:
        """One cold pass and its warm reruns, each in a fresh process."""
        cache = self.fresh_cache()
        try:
            cold = self.spawn(name, "cold", cache, repeat)
            if not self.check(name, cold, f"repeat {repeat} cold", repeat):
                return
            speed = _speed(cold)
            sim_s = cold["sim_wall_s"] * speed
            measured = {
                "cold_s": cold["pass_s"] * speed,
                "setup_s": cold["import_s"] * cold["speed_before"]
                + (cold["gen_s"] + cold["build_s"]) * speed,
                "sim_kips": cold["sim_instructions"] / 1e3 / sim_s,
                "sim_cycles_per_s": cold["sim_cycles"] / sim_s,
                "peak_rss_mb": cold["rss_mb"],
            }
            for metric, value in measured.items():
                self._add(name, metric, value)
            self._add(name, "speed", speed)
            self._add(name, "raw_cold_s", cold["pass_s"])
            for _ in range(WARM_PASSES):
                warm = self.spawn(name, "warm", cache, repeat)
                if self.check(name, warm, f"repeat {repeat} warm", repeat):
                    self._add(name, "warm_s", warm["pass_s"] * warm["speed_edges"])
                    self._add(name, "raw_warm_s", warm["pass_s"])
        finally:
            shutil.rmtree(cache, ignore_errors=True)

    def traced(self, name: str) -> None:
        """One untraced and one traced pass, both with a single worker and
        on the inputs of repeat 0, so that they also re-simulate a timed
        pass's runs."""
        base_cache, traced_cache = self.fresh_cache(), self.fresh_cache()
        try:
            base = self.spawn(name, "cold", base_cache, 0, one_worker=True)
            traced = self.spawn(name, "cold", traced_cache, 0, traced=True)
        finally:
            shutil.rmtree(base_cache, ignore_errors=True)
            shutil.rmtree(traced_cache, ignore_errors=True)
        ok = self.check(name, base, "untraced (1 worker)", 0)
        ok &= self.check(name, traced, "traced", 0)
        if not ok:
            return
        speed = _speed(traced)
        per_layer = {
            metric: {
                "value": value * speed if unit in report.TIME_UNITS else value,
                "unit": unit,
            }
            for metric, (value, unit) in traced["per_layer"].items()
        }
        per_layer["trace.overhead_frac"] = {
            "value": traced["pass_s"] * speed
            / (base["pass_s"] * _speed(base)) - 1,
            "unit": "frac",
        }
        self.data[name]["per_layer"] = per_layer
        self.data[name]["layers"] = traced["layers"]

    def warm_up(self) -> None:
        """Import everything once, untimed, so bytecode compilation never
        lands in a measured start-up."""
        self.spawn(next(iter(suite.WORKLOADS)), "import", self.tmp, 0)

    # --------------------------------------------------------------- record

    def record(self, spec: dict, names, settings: dict) -> dict:
        units = {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]}
        workloads = {}
        for name in names:
            entry = self.data[name]
            end_to_end, advisory = {}, {}
            for metric, values in entry["samples"].items():
                if metric not in units:  # speed factors, raw host seconds, ungated
                    advisory[metric] = {**report.summarize(values), "samples": values}
                    continue
                unit, better = units[metric]
                end_to_end[metric] = {
                    "unit": unit, "better": better,
                    **report.summarize(values), "samples": values,
                }
            workloads[name] = {
                "why": suite.WORKLOADS[name].why,
                "end_to_end": end_to_end,
                "advisory": advisory,
                **{k: v for k, v in entry.items() if k != "samples"},
            }
        attempted = sum(w["attempted"] for w in workloads.values())
        failed = sum(w["failed"] for w in workloads.values())
        return {
            "schema": 1,
            "correct": attempted > 0 and failed == 0,
            "attempted": attempted,
            "failed": failed,
            "settings": settings,
            "meta": self.meta,
            "workloads": workloads,
        }


def git_commit() -> str:
    """The checked-out commit, read from ``.git`` ("unknown" without one)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metadata() -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "commit": git_commit(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "loadavg_before": os.getloadavg(),
    }


def run_timed(session: Session, name: str, seconds: float) -> None:
    """Repeats of one workload until the next would end more than half a
    repeat after ``seconds``."""
    start = _clock()
    durations = []
    while True:
        elapsed = _clock() - start
        last = durations[-1] if durations else 0.0
        if durations and (
            elapsed + last > REPEAT_BUDGET_S
            or (len(durations) >= MIN_REPEATS and elapsed + last / 2 > seconds)
        ):
            break
        began = _clock()
        session.repeat(name, len(durations))
        durations.append(_clock() - began)


def contract_line(record: dict, spec: dict, name: str, trace: bool) -> dict:
    entry = record["workloads"][name]
    metrics, complete = {}, True
    for m in spec["per_layer" if trace else "end_to_end"]:
        if trace:
            value = entry.get("per_layer", {}).get(m["name"], {}).get("value")
        else:
            value = entry["end_to_end"].get(m["name"], {}).get("median")
        if value is None:
            complete, value = False, 0
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    return {
        "correct": record["correct"] and complete,
        "attempted": max(1, record["attempted"]),
        "failed": record["failed"] if record["attempted"] else 1,
        "metrics": metrics,
    }


PAPER_FIG4 = {"Binary": 1.065, "BlockCount": 1.087, "MaxStallTime": 1.093,
              "CLPT-Consumers": 1.00}


def print_summary(record: dict) -> None:
    for name, entry in record["workloads"].items():
        print(f"== {name}: {entry['attempted'] - entry['failed']}"
              f"/{entry['attempted']} runs correct ==")
        for metric, s in entry["end_to_end"].items():
            print(f"  {metric:<18} {s['median']:>12.5g} {s['unit']:<6} "
                  f"[{s['q1']:.5g}, {s['q3']:.5g}] min {s['min']:.5g} n={s['n']}")
        for failure in entry["failures"][:10]:
            print(f"  FAILED {failure}")
        if "fig4_average" in entry:
            print("  fig4 averages (model unvalidated vs hardware; "
                  "informational, not gated):")
            for predictor, value in entry["fig4_average"].items():
                paper = PAPER_FIG4.get(predictor)
                ref = f"paper {paper:.3f}" if paper else ""
                print(f"    {predictor:<16} {value:.3f}  {ref}")


def parse(argv):
    parser = argparse.ArgumentParser(prog="bench/run.py")
    parser.add_argument("--workload", required=True,
                        choices=[*suite.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--out", type=Path, default=None)
    return parser.parse_args(argv)


def main(argv) -> int:
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            print("usage: bench/run.py compare PARENT.json CHANGE.json",
                  file=sys.stderr)
            return 2
        parent, change = (json.loads(Path(p).read_text()) for p in argv[1:])
        lines, regressed = report.compare(parent, change, load_spec())
        print("\n".join(lines))
        return 1 if regressed else 0

    args = parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("bench: no simulator sources under src/repro in this checkout",
              file=sys.stderr)
        return 2
    spec = load_spec()
    full = args.workload == "all"
    names = list(suite.WORKLOADS) if full else [args.workload]
    rounds = 1 if args.quick else ROUNDS
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]

    # One workload must end within the 180 s a benchmark run may take;
    # the full suite's rounds have no such limit.
    session = Session(args.seed, args.quick,
                      _clock() + (FULL_BUDGET_S if full else RUN_BUDGET_S))
    try:
        session.warm_up()
        if full:
            # Every round on repeat 0's inputs: rounds then differ only by
            # host noise, the spread ``compare`` takes as its noise floor,
            # and every round re-checks the same result digests.
            for _ in range(rounds):
                for name in names:
                    session.repeat(name, 0)
            for name in names:
                session.traced(name)
        elif args.trace:
            session.traced(names[0])
        else:
            run_timed(session, names[0], seconds)
    finally:
        session.close()
    session.meta["loadavg_after"] = os.getloadavg()
    session.meta["removed_env"] = session.removed_env
    settings = {"seed": args.seed, "quick": args.quick,
                "rounds": rounds if full else None,
                "seconds": None if full else seconds,
                "trace": args.trace, "workloads": names}
    record = session.record(spec, names, settings)
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    if args.workload == "all":
        print_summary(record)
        if args.out:
            print(f"record: {args.out}")
        line = {k: record[k] for k in ("correct", "attempted", "failed")}
        line["metrics"] = {}
    else:
        line = contract_line(record, spec, names[0], bool(args.trace))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
