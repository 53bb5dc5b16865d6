"""Scheduler registry: name -> factory of per-channel scheduler instances.

``make_scheduler_factory(name, **kwargs)`` returns the callable the
:class:`~repro.dram.controller.MemorySystem` constructor expects (one fresh
scheduler per channel — schedulers needing cross-channel state receive it
via shared closures in their own modules; none of the implemented policies
require it).
"""

from __future__ import annotations

from repro.core.critsched import CasRasCritScheduler, CritCasRasScheduler
from repro.sched.ahb import AhbScheduler
from repro.sched.fcfs import FcfsScheduler
from repro.sched.frfcfs import FrFcfsScheduler
from repro.sched.morse import CritRlScheduler, MorseScheduler
from repro.sched.parbs import ParBsScheduler
from repro.sched.tcm import TcmScheduler
from repro.sched.tcm_crit import TcmCritScheduler

SCHEDULERS = {
    "fcfs": FcfsScheduler,
    "fr-fcfs": FrFcfsScheduler,
    "crit-casras": CritCasRasScheduler,
    "casras-crit": CasRasCritScheduler,
    "ahb": AhbScheduler,
    "par-bs": ParBsScheduler,
    "tcm": TcmScheduler,
    "tcm+crit": TcmCritScheduler,
    "morse-p": MorseScheduler,
    "crit-rl": CritRlScheduler,
}


def make_scheduler_factory(name: str, **kwargs):
    """Factory of per-channel scheduler instances for ``MemorySystem``."""
    try:
        cls = SCHEDULERS[name]
    except KeyError:
        raise ValueError(
            f"unknown scheduler {name!r}; choose from {sorted(SCHEDULERS)}"
        ) from None

    def factory(channel_id: int):
        return cls(**kwargs)

    return factory
