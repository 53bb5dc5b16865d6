"""Legal counter-examples: none of these may produce a finding.

Each mirrors one hazard module with the sanctioned version of the same
pattern — conversions through the clock ratio, chained state, a
scheduler that draws no randomness — so the analyzer's precision is pinned alongside
its recall.
"""

from tests.fixtures.semantic_hazards._base import Scheduler


def to_cpu_cycles(dram_cycle, cpu_ratio):
    # Sanctioned cast: the ratio multiply converts dram -> cpu cycles.
    return dram_cycle * cpu_ratio


def deadline_passed(cpu_now, dram_wake, cpu_ratio):
    # Legal version of the SEM002 fixture: convert before comparing.
    cpu_wake = dram_wake * cpu_ratio
    return cpu_now >= cpu_wake


class CoveredController:
    """Legal version of the SEM010 fixture: state reaches det_state."""

    def __init__(self):
        self.commands_issued_total = 0

    def step(self, now):
        self.commands_issued_total += 1

    def next_wake(self, now):
        # Legal version of the SEM030 fixture: genuinely pure probe.
        return now + 1

    def det_state(self):
        return [self.commands_issued_total]


class WindowReader:
    """Legal version of the SEM032 fixture: the cited certificate is
    current (det_state is window-invariant)."""

    def snapshot(self, controller):
        # repro-batch: cert=CoveredController.det_state
        return controller.det_state()


class OldestFirstScheduler(Scheduler):
    """Legal version of the SEM031 fixture: a deterministic ranking."""

    name = "oldest-first"

    def select(self, candidates, controller, now):
        candidates = self.admissible(candidates, controller)
        best = None
        for cand in candidates:
            if best is None or cand.txn.seq < best.txn.seq:
                best = cand
        return best
