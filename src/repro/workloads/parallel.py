"""The nine parallel applications of paper Table 2, eight threads each."""

from __future__ import annotations

import functools

from repro.workloads.models import PARALLEL_APPS
from repro.workloads.synthetic import build_static_program, generate_trace

#: Paper Figure ordering: art, cg, equake, fft, mg, ocean, radix, scalparc,
#: swim (alphabetical, as the figures list them).
PARALLEL_APP_NAMES = tuple(sorted(PARALLEL_APPS))


def parallel_traces(app: str, threads: int, instructions: int, seed: int = 1):
    """Per-thread traces for one parallel application.

    All threads share static code (same PCs) and the shared data region;
    each gets a private footprint slice.  The static program is built at
    most once, by the first thread whose trace is not already memoised,
    and shared with the rest.
    """
    try:
        model = PARALLEL_APPS[app]
    except KeyError:
        raise ValueError(
            f"unknown parallel app {app!r}; choose from {PARALLEL_APP_NAMES}"
        ) from None
    program = functools.cache(lambda: build_static_program(model, seed))
    return [
        generate_trace(
            model,
            instructions,
            thread_id=t,
            threads=threads,
            seed=seed,
            program=program,
        )
        for t in range(threads)
    ]
