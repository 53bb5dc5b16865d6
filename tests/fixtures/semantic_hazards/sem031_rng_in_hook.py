"""SEM031: randomness inside a per-cycle model hook.

``select`` runs every DRAM cycle; drawing from an RNG there (even a
seeded one) without the documented suppression-with-rationale makes
the per-cycle path nondeterministic by default.  The scheduler holds
no state of its own, so this fixture isolates the RNG hazard.
"""

from tests.fixtures.semantic_hazards._base import Scheduler


class JitterScheduler(Scheduler):
    name = "jitter"

    def select(self, candidates, controller, now):
        if not candidates:
            return None
        ordered = sorted(candidates, key=lambda c: c.txn.seq)
        # SEM031: per-cycle decision depends on an RNG draw.
        pick = controller.rng.randrange(len(ordered))
        return ordered[pick]
