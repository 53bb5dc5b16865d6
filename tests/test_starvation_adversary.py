"""Starvation adversary: the Section 3.2 queueing-delay bound, at run time.

The paper caps a request's queueing delay at 6,000 DRAM cycles, and
every baseline breaks ties by age.  This module drives one
``ChannelController`` per registered scheduler, with the shadow protocol
oracle on (``REPRO_SANITIZE=1``):

* a victim read is queued first;
* then a hog on another core keeps ``n`` newer reads of the victim's
  command class queued, topping the queue up before every DRAM cycle:
  row hits to the victim's row, or row misses to the other banks of its
  rank.

For ``n`` from 1 to 63 (the 64-entry queue, full), with the victim on the
lower core id and on the higher one, the victim's READ must issue within
``DramConfig.starvation_cap_dram_cycles``.  Two seeded schedulers show
that the check bites: newest-first and a fixed core priority.

The cases are same-class on purpose.  A row conflict queued behind an
unbroken train of row hits has no PRECHARGE candidate (each READ pushes
the bank's ``pre_ready`` past the next CAS slot), so no scheduler can
serve it before refresh closes the row (DESIGN.md §6).

``python tests/test_starvation_adversary.py`` prints every scheduler's
worst wait over all cases.
"""

from __future__ import annotations

import itertools

import pytest

from repro.config import DramConfig
from repro.dram.addressmap import AddressMap, DramLocation
from repro.dram.controller import ChannelController
from repro.dram.transaction import Transaction
from repro.sched.base import Scheduler
from repro.sched.registry import SCHEDULERS

CONFIG = DramConfig(channels=1)
CAP = CONFIG.starvation_cap_dram_cycles
HOGS = ("row-hits", "row-misses")
#: (victim core, hog core): the victim on the lower id, then the higher.
ORIENTATIONS = ((0, 1), (1, 0))
HOG_SIZES = range(1, CONFIG.transaction_queue_entries)

_VICTIM_BANK, _VICTIM_ROW = 0, 1
_LINES_PER_ROW = CONFIG.row_buffer_bytes // 64


def _hog_location(hog: str, k: int) -> DramLocation:
    """Where the hog's ``k``-th read (k = 0, 1, ...) goes."""
    if hog == "row-hits":
        return DramLocation(0, 0, _VICTIM_BANK, _VICTIM_ROW,
                            (k % _LINES_PER_ROW) * 64)
    # Round-robin over the rank's other banks, a new row on every visit,
    # so each read misses whatever row its bank has open.
    others = CONFIG.banks_per_rank - 1
    return DramLocation(0, 0, 1 + k % others, 2 + k // others, 0)


def victim_wait(make_scheduler, hog: str, victim_core: int, hog_core: int,
                n: int, limit: int = CAP) -> int | None:
    """DRAM cycles the victim waited for its READ, or None if it was
    still queued after ``limit`` cycles."""
    controller = ChannelController(0, CONFIG, make_scheduler())
    assert controller.sanitizer is not None, "REPRO_SANITIZE=1 did not attach"
    address_map = AddressMap(CONFIG)
    issued = []

    def read(core, loc, callback=None):
        return Transaction(address_map.compose(loc), loc, core=core,
                           callback=callback)

    victim = read(victim_core,
                  DramLocation(0, 0, _VICTIM_BANK, _VICTIM_ROW, 0),
                  issued.append)
    controller.enqueue(victim, 0)
    hog_reads = (read(hog_core, _hog_location(hog, k))
                 for k in itertools.count())
    for now in range(limit + 1):
        while len(controller.read_queue) < n + 1:
            controller.enqueue(next(hog_reads), now)
        controller.step(now)
        if issued:
            return now - victim.arrival
    return None


def worst_wait(make_scheduler, hogs=HOGS):
    """The longest victim wait over every case, as ``(wait, case)``; the
    first case whose victim never issued within the cap has wait None."""
    worst = (-1, None)
    for hog in hogs:
        for victim_core, hog_core in ORIENTATIONS:
            for n in HOG_SIZES:
                case = (hog, victim_core, hog_core, n)
                wait = victim_wait(make_scheduler, *case)
                if wait is None:
                    return None, case
                worst = max(worst, (wait, case))
    return worst


@pytest.fixture(autouse=True)
def sanitize_on(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "1")


@pytest.mark.parametrize("hog", HOGS)
@pytest.mark.parametrize("name", sorted(SCHEDULERS))
def test_every_registered_scheduler_serves_the_victim(name, hog):
    wait, case = worst_wait(SCHEDULERS[name], hogs=(hog,))
    assert wait is not None, (
        f"{name}: the victim was still queued after {CAP} DRAM cycles "
        f"(hog, victim core, hog core, n = {case})"
    )
    assert wait <= CAP


class NewestFirstScheduler(Scheduler):
    """Seeded bug: CAS before RAS, then the newest request first."""

    name = "newest-first"

    def select(self, candidates, controller, now):
        candidates = self.admissible(candidates, controller)
        return min(candidates, default=None,
                   key=lambda c: (not c.is_cas, -c.txn.seq))


class CorePriorityScheduler(Scheduler):
    """Seeded bug: the highest core id always wins, then FR-FCFS."""

    name = "core-priority"

    def select(self, candidates, controller, now):
        candidates = self.admissible(candidates, controller)
        return min(candidates, default=None,
                   key=lambda c: (-c.txn.core, not c.is_cas, c.txn.seq))


@pytest.mark.parametrize("seeded", [NewestFirstScheduler, CorePriorityScheduler])
def test_the_adversary_starves_a_seeded_unguarded_scheduler(seeded):
    wait, case = worst_wait(seeded)
    assert wait is None, f"{seeded.name} served every victim (worst {wait})"


def main() -> None:
    import os

    os.environ["REPRO_SANITIZE"] = "1"
    print(f"{'scheduler':<14}{'hog':<12}worst wait (DRAM cycles), case "
          f"(victim core, hog core, n)")
    for name in sorted(SCHEDULERS):
        for hog in HOGS:
            wait, case = worst_wait(SCHEDULERS[name], hogs=(hog,))
            print(f"{name:<14}{hog:<12}{wait}  {case[1:]}")


if __name__ == "__main__":
    main()
