"""Local stand-in for ``repro.sched.base.Scheduler``.

The analyzer resolves base classes statically inside the analysis
roots, so the fixture package carries its own interface root: the
scheduler fixtures subclass this and are checked by the same passes
as the real policies.
"""


class Scheduler:
    """Policy interface: rank admissible candidates, mutate nothing."""

    def select(self, candidates, controller, now):
        raise NotImplementedError

    def admissible(self, candidates, controller):
        return candidates

    def det_state(self):
        return ()
