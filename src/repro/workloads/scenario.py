"""Hand-built scenario traces: one role per core.

A scenario's name lists its cores' roles, the way a bundle's name lists
its apps: ``L`` is the latency-bound walker (:func:`latency_bound_trace`)
and ``S`` the store streamer (:func:`bandwidth_bound_trace`).  Core ``i``
runs role ``roles[i]`` with ``core_id=i``, so ``"LS"`` is the mechanism
experiment's scenario.  The traces take no seed.
"""

from __future__ import annotations

from repro.cpu.instruction import INT, LOAD, STORE, Trace


def latency_bound_trace(n: int, gap: int = 120, core_id: int = 0) -> Trace:
    """Sparse independent misses, each gating ~gap instructions of work."""
    trace = Trace("latency-bound")
    base = (core_id + 1) << 36
    addr = base
    while len(trace) < n:
        for i in range(gap):
            trace.append(INT, 1000 + (i % 32), 0, 1 if i else 0)
        trace.append(LOAD, 2000, addr, 0)
        trace.append(INT, 2001, 0, 1)
        trace.append(INT, 2002, 0, 1)
        addr += (1 << 14) + 1024
    return trace


def bandwidth_bound_trace(n: int, core_id: int = 0) -> Trace:
    """A continuous line-granular store stream (memset/array-init-like).

    Stores retire through the store buffer and never block commit, so this
    core's DRAM traffic — read-for-ownership fetches plus eventual dirty
    write-backs — is exactly the *non-critical* population the scheduler
    should defer: the core is bandwidth-bound, and its finish time depends
    on aggregate service, not per-request latency.
    """
    trace = Trace("bandwidth-bound")
    addr = (core_id + 1) << 36 | (1 << 35)
    k = 0
    while len(trace) < n:
        trace.append(STORE, 3000 + (k % 8), addr, 0)
        for i in range(4):
            trace.append(INT, 4000 + i, 0, 1 if i else 0)
        addr += 64
        k += 1
    return trace


#: Role letter -> trace builder, called as ``builder(n, core_id=i)``.
ROLES = {"L": latency_bound_trace, "S": bandwidth_bound_trace}


def check_roles(roles: str, cores: int) -> None:
    """Raise ``ValueError`` unless ``roles`` names one known role per core."""
    if len(roles) != cores or not set(roles) <= ROLES.keys():
        raise ValueError(
            f"scenario {roles!r} must name one role of {''.join(ROLES)} "
            f"for each of its {cores} cores"
        )


def scenario_traces(roles: str, instructions: int) -> list[Trace]:
    """Per-core traces of the scenario ``roles``, each at least
    ``instructions`` long."""
    return [
        ROLES[role](instructions, core_id=core)
        for core, role in enumerate(roles)
    ]
