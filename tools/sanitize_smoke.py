#!/usr/bin/env python3
"""Protocol-sanitizer smoke sweep: every registered scheduler, plus an
injected-violation self-test.

Runs a short mixed workload (one row-buffer-friendly app, one irregular
app) under ``REPRO_SANITIZE=1`` for every scheduler in the registry, so
each policy's full command stream is re-checked by the shadow JEDEC
oracle (see :mod:`repro.analysis.protocol`), including the rolling
four-activate window (tFAW, derived 4×tRRD unless the config tightens
it).  Then deliberately breaks two constraints through the *controller*
path — tRP (zeroing a bank's ``act_ready`` right after a precharge) and
tFAW (erasing the channel's rolling ACTIVATE window so a fifth ACTIVATE
issues inside it) — and asserts the sanitizer catches both, proving the
oracle is actually wired in and not vacuously green.

CI runs this as the ``lint-and-sanitize`` job's second gate.

    python tools/sanitize_smoke.py [--apps fft,radix] [--instructions 1200]
"""

import argparse
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

os.environ["REPRO_SANITIZE"] = "1"


def clean_sweep(apps, instructions) -> int:
    from repro.config import SimScale
    from repro.sched.registry import SCHEDULERS
    from repro.sim.runner import run_parallel_workload

    scale = SimScale(
        instructions_per_core=instructions,
        warmup_instructions=max(200, instructions // 10),
    )
    failures = 0
    for scheduler in sorted(SCHEDULERS):
        for app in apps:
            provider = ("cbp", {"entries": 64}) if "crit" in scheduler else None
            try:
                result = run_parallel_workload(
                    app, scheduler=scheduler, provider_spec=provider, scale=scale
                )
            except AssertionError as exc:
                print(f"FAIL {app}/{scheduler}: {exc}")
                failures += 1
                continue
            print(f"ok   {app}/{scheduler}: {result.cycles:,} cycles")
    return failures


def injected_trp_violation_is_caught() -> bool:
    """Break tRP through the controller path; the sanitizer must object."""
    from repro.analysis.protocol import ProtocolViolation
    from repro.config import DramConfig
    from repro.dram.addressmap import DramLocation
    from repro.dram.controller import ChannelController
    from repro.dram.transaction import Transaction
    from repro.sched.frfcfs import FrFcfsScheduler

    config = DramConfig(channels=1, ranks_per_channel=1, banks_per_rank=2)
    controller = ChannelController(0, config, FrFcfsScheduler())
    assert controller.sanitizer is not None, "REPRO_SANITIZE=1 did not attach"

    def read_to(row, now_start, cycles=400):
        txn = Transaction(0, DramLocation(0, 0, 0, row, 0))
        controller.enqueue(txn, now_start)
        for now in range(now_start, now_start + cycles):
            controller.step(now)
            if txn not in controller.read_queue:
                return now
        raise RuntimeError("read never serviced")

    # Open row 1, read it, then queue a conflicting row so the controller
    # precharges; immediately forge the bank's act_ready bookkeeping to
    # pretend tRP already elapsed.  The next ACTIVATE is then issued too
    # early — only the shadow oracle can notice.
    done = read_to(row=1, now_start=0)
    bank = controller.banks[0][0]
    txn = Transaction(0, DramLocation(0, 0, 0, 2, 0))
    controller.enqueue(txn, done + 1)
    try:
        for now in range(done + 1, done + 400):
            pre_open = bank.open_row
            controller.step(now)
            if pre_open is not None and bank.open_row is None:
                bank.act_ready = 0  # forge: erase the tRP delay
        return False  # no violation raised: sanitizer missed it
    except ProtocolViolation as exc:
        print(f"ok   injected tRP violation caught: {exc}")
        return True


def injected_tfaw_violation_is_caught() -> bool:
    """Erase the four-activate window bookkeeping; the oracle must object."""
    import dataclasses

    from repro.analysis.protocol import ProtocolViolation
    from repro.config import DramConfig
    from repro.dram.addressmap import DramLocation
    from repro.dram.controller import ChannelController
    from repro.dram.transaction import Transaction
    from repro.sched.frfcfs import FrFcfsScheduler

    base = DramConfig(channels=1, ranks_per_channel=1, banks_per_rank=8)
    # A window far wider than tRRD-legal spacing, so wherever command-bus
    # arbitration lands the fifth ACTIVATE, it is inside the window.
    timings = dataclasses.replace(
        base.timings, tFAW=4 * base.timings.tRRD + 200
    )
    config = dataclasses.replace(base, timings=timings)
    controller = ChannelController(0, config, FrFcfsScheduler())
    assert controller.sanitizer is not None, "REPRO_SANITIZE=1 did not attach"

    # Five reads to five distinct banks: each needs its own ACTIVATE.
    for bank in range(5):
        txn = Transaction(0, DramLocation(0, 0, bank, 1, 0))
        controller.enqueue(txn, 0)
    try:
        for now in range(400):
            controller.step(now)
            # Forge: the controller forgets its rolling window, so it
            # spaces ACTIVATEs by tRRD alone — legal per-pair, but the
            # fifth lands inside the widened four-activate window.
            controller.timing.rank_act_history[0].clear()
        return False  # no violation raised: sanitizer missed it
    except ProtocolViolation as exc:
        print(f"ok   injected tFAW violation caught: {exc}")
        return True


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--apps", default="fft,radix",
                        help="comma-separated parallel apps (default fft,radix)")
    parser.add_argument("--instructions", type=int, default=1_200)
    args = parser.parse_args()

    apps = [a.strip() for a in args.apps.split(",") if a.strip()]
    failures = clean_sweep(apps, args.instructions)
    if not injected_trp_violation_is_caught():
        print("FAIL injected tRP violation was NOT caught")
        failures += 1
    if not injected_tfaw_violation_is_caught():
        print("FAIL injected tFAW violation was NOT caught")
        failures += 1
    if failures:
        print(f"{failures} sanitizer smoke failure(s)")
        return 1
    print("sanitizer smoke sweep passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
