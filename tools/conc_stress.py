#!/usr/bin/env python3
"""Runtime stress for the shared-artifact persistence contract.

Every shared artifact is written through :mod:`repro.util.atomicio`
(the IO001 lint rule keeps raw renames and append-mode opens out of
everything else); this harness proves the contract holds at runtime by
racing real writers and killing them mid-write.  Three gates, run by
CI's lint-and-sanitize job:

1. **Cache race** — two processes simulate the same ``RunSpec`` against
   one ``REPRO_CACHE_DIR``.  Whichever writer wins the ``os.replace``,
   the slot must hold one complete pickle and both processes must
   report the same result fingerprint (the payload is a pure function
   of the key, so the race is benign by construction).
2. **SIGKILL mid-write** — a child rewrites one JSON artifact in a hot
   loop and is SIGKILL'd at a random moment, repeatedly.  The target
   must always parse clean as one complete snapshot (old or new, never
   a partial), which is exactly the tmp+fsync+replace guarantee.
3. **Run-log interleaving** — N processes append M records each to one
   JSONL log through ``atomicio.append_jsonl``.  Every line must parse
   and every (writer, seq) pair must appear exactly once: ``O_APPEND``
   with one ``os.write`` per record cannot tear.

    python tools/conc_stress.py [--root DIR] [--writers 4] [--records 25]
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
sys.path.insert(0, _SRC)


def _env(**extra):
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env.update(extra)
    return env


def _spawn_child(role, *args, env=None, **popen_kwargs):
    return subprocess.Popen(
        [sys.executable, __file__, "--child", role, *map(str, args)],
        env=env or _env(),
        **popen_kwargs,
    )


def _wait_for(path: Path, timeout: float = 30.0) -> None:
    deadline = time.monotonic() + timeout
    while not path.exists():
        if time.monotonic() > deadline:
            raise TimeoutError(f"gave up waiting for {path}")
        time.sleep(0.005)


# ------------------------------------------------------------- child roles
#
# Children re-exec this file with ``--child <role>``; a shared "GO" file
# acts as a start barrier so racing children actually overlap.


def _child_cache_run(cache_dir: str, go: str) -> None:
    os.environ["REPRO_CACHE_DIR"] = cache_dir
    os.environ.pop("REPRO_NO_CACHE", None)
    from repro.config import SimScale
    from repro.sim.engine import RunSpec, run_one_cached
    from repro.sim.stats import result_fingerprint

    spec = RunSpec(
        kind="parallel",
        workload="fft",
        scale=SimScale(
            instructions_per_core=800, warmup_instructions=0, seed=11
        ),
    )
    _wait_for(Path(go))
    result = run_one_cached(spec)
    print(result_fingerprint(result))


def _child_rewrite_loop(target: str) -> None:
    from repro.util import atomicio

    generation = 0
    while True:
        generation += 1
        atomicio.write_json(
            target,
            {
                "version": 1,
                "generation": generation,
                "payload": ["x" * 64] * 32,
            },
        )


def _child_append(log: str, writer: str, records: str, go: str) -> None:
    from repro.util import atomicio

    _wait_for(Path(go))
    for seq in range(int(records)):
        atomicio.append_jsonl(log, [{"writer": int(writer), "seq": seq}])


_CHILD_ROLES = {
    "cache-run": _child_cache_run,
    "rewrite-loop": _child_rewrite_loop,
    "append": _child_append,
}


# ------------------------------------------------------------------- gates


def check_cache_race(root: Path) -> list[str]:
    """Gate 1: racing writers of one cache key leave one clean pickle."""
    from repro.sim.stats import SimResult

    errors = []
    cache_dir = root / "cache"
    go = root / "cache-go"
    procs = [
        _spawn_child(
            "cache-run", cache_dir, go,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        for _ in range(2)
    ]
    go.write_text("go")
    fingerprints = []
    for proc in procs:
        out, err = proc.communicate(timeout=300)
        if proc.returncode != 0:
            errors.append(f"cache child failed rc={proc.returncode}: {err}")
        else:
            fingerprints.append(out.strip())
    if len(set(fingerprints)) > 1:
        errors.append(f"racing runs diverged: {fingerprints}")
    slots = sorted(cache_dir.glob("*.pkl"))
    if len(slots) != 1:
        errors.append(f"expected one cache slot, found {slots}")
    for slot in slots:
        try:
            cached = pickle.loads(slot.read_bytes())
        except Exception as exc:  # torn pickle IS the failure under test
            errors.append(f"cache slot {slot.name} is torn: {exc!r}")
            continue
        if not isinstance(cached, SimResult):
            errors.append(f"cache slot holds {type(cached).__name__}")
    leftovers = [p.name for p in cache_dir.glob("*.tmp*")]
    if leftovers:
        errors.append(f"unreplaced tmp files in cache: {leftovers}")
    return errors


def check_sigkill_mid_write(root: Path, kills: int = 5) -> list[str]:
    """Gate 2: SIGKILL mid-rewrite leaves old-or-new, never a partial."""
    errors = []
    target = root / "victim" / "index.json"
    target.parent.mkdir(parents=True, exist_ok=True)
    for attempt in range(kills):
        proc = _spawn_child(
            "rewrite-loop", target,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        try:
            _wait_for(target)
            # Let it race through some generations before the kill; vary
            # the delay so the kill lands at different write phases.
            time.sleep(0.05 + 0.03 * attempt)
        finally:
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=30)
        try:
            snapshot = json.loads(target.read_text())
        except ValueError as exc:
            errors.append(f"kill #{attempt}: target is torn: {exc!r}")
            continue
        generation = snapshot.get("generation", 0)
        if snapshot.get("version") != 1 or generation < 1:
            errors.append(f"kill #{attempt}: bad snapshot {snapshot.keys()}")
    return errors


def check_run_log_interleaving(
    root: Path, writers: int = 4, records: int = 25
) -> list[str]:
    """Gate 3: concurrent appenders never tear or drop a record."""
    errors = []
    log = root / "run_log.jsonl"
    go = root / "log-go"
    procs = [
        _spawn_child(
            "append", log, i, records, go,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        )
        for i in range(writers)
    ]
    go.write_text("go")
    for proc in procs:
        _, err = proc.communicate(timeout=120)
        if proc.returncode != 0:
            errors.append(f"append child rc={proc.returncode}: {err}")
    seen = set()
    for lineno, line in enumerate(log.read_text().splitlines(), start=1):
        try:
            record = json.loads(line)
        except ValueError:
            errors.append(f"line {lineno} is torn: {line[:80]!r}")
            continue
        seen.add((record["writer"], record["seq"]))
    expected = {(w, s) for w in range(writers) for s in range(records)}
    if seen != expected:
        errors.append(
            f"lost {len(expected - seen)} records, "
            f"alien {len(seen - expected)}"
        )
    return errors


GATES = (
    ("cache-race", check_cache_race),
    ("sigkill-mid-write", check_sigkill_mid_write),
    ("run-log-interleaving", check_run_log_interleaving),
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", help="scratch directory (default: temp)")
    parser.add_argument("--writers", type=int, default=4)
    parser.add_argument("--records", type=int, default=25)
    parser.add_argument("--child", choices=sorted(_CHILD_ROLES))
    parser.add_argument("args", nargs="*")
    args = parser.parse_args(argv)

    if args.child:
        _CHILD_ROLES[args.child](*args.args)
        return 0

    with tempfile.TemporaryDirectory(prefix="conc-stress-") as scratch:
        root = Path(args.root) if args.root else Path(scratch)
        root.mkdir(parents=True, exist_ok=True)
        failed = 0
        for name, gate in GATES:
            started = time.monotonic()
            if gate is check_run_log_interleaving:
                errors = gate(root, args.writers, args.records)
            else:
                errors = gate(root)
            elapsed = time.monotonic() - started
            status = "PASS" if not errors else "FAIL"
            print(f"[{status}] {name} ({elapsed:.1f}s)")
            for error in errors:
                print(f"    {error}")
            failed += bool(errors)
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
