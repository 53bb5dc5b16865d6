"""Seeded hazard fixture for the simulator lint pass.

Every rule in :mod:`repro.analysis.lint` must fire at least once on this
file, so ``python -m repro lint tests/fixtures/lint_hazards.py`` exiting
nonzero proves the linter actually detects each hazard class.  The file
is never imported — it only needs to parse.

Do NOT "fix" these; they are the test vectors.
"""

import datetime
import json
import os
import os as _os
import random
import time
from pathlib import Path


def unseeded_randomness(queue):
    # DET001: the module-global generator depends on process history.
    pick = random.choice(queue)
    random.shuffle(queue)
    return pick


def wall_clock_timestamp():
    # DET002: host time leaking into simulated state.
    started = time.time()
    stamp = datetime.datetime.now()
    return started, stamp


def set_order_decision(pending):
    # DET003: set iteration order varies with PYTHONHASHSEED.
    ready = {txn for txn in pending}
    for txn in ready:
        return txn
    return None


def environ_order_decision():
    # DET004: os.environ's order reflects process history, not the run.
    for key in os.environ:
        return key
    return None


def shared_default_history(event, history=[]):
    # ARG001: the default list is evaluated once and shared across calls.
    history.append(event)
    return history


def float_cycles(total, banks):
    # FLT001: float arithmetic stored into a cycle counter.
    next_ready_cycle = total / banks
    return next_ready_cycle


def _write_run_log(path, metrics):
    # IO001: the run-log append before it moved onto repro.util.atomicio.
    # A buffered append-mode handle can flush mid-record, so concurrent
    # workers interleave partial lines.
    with open(path, "a") as fh:
        for metric in metrics:
            fh.write(json.dumps(metric) + "\n")


def publish_snapshot(tmp, target: Path):
    # IO001: hand-rolled rename (via an aliased os) and a Path append.
    _os.replace(tmp, target)
    with target.with_suffix(".log").open(mode="a") as fh:
        fh.write("published\n")


def swallow_everything(action):
    try:
        action()
    except:  # EXC001: bare except
        return None


def drop_silently(action):
    try:
        action()
    except ValueError:
        pass  # EXC002: error erased without a trace


class HotPathWaste:
    """PERF rules: per-cycle hot methods paying avoidable loop costs."""

    def step(self, now):
        # PERF001: a fresh list per iteration of a per-cycle loop.
        for channel in self.channels:
            staged = []
            staged.append(channel)
        # PERF003: a dict built from scratch every iteration.
        while now < self.deadline:
            lookup = {"now": now}
            now += lookup["now"]

    def select(self, candidates, controller, now):
        # PERF002: controller.read_queue re-walked on every iteration.
        best = None
        for cand in candidates:
            if len(controller.read_queue) > 4 and controller.read_queue:
                best = cand
        return best


def suppressed_example():
    # A correctly suppressed finding: counts as `suppressed`, not a finding.
    t0 = time.perf_counter()  # repro-lint: disable=DET002 fixture example
    return t0


def stale_suppression(value):
    # SUP001: the named rule does not exist, so this comment silences
    # nothing — likely a typo or a rule that was renamed away.
    return value  # repro-lint: disable=DET999
