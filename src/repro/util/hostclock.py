"""The single sanctioned host-clock API for simulator code.

Host time must never reach simulated state: every architectural decision
flows from the virtual cycle counter, and the DET002 lint rule flags any
raw ``time.*`` clock read inside ``src/repro``.  Legitimate *host-side*
observability — ``SimResult.wall_seconds`` (also written to the
``REPRO_RUN_LOG``) and the ``repro profile`` engine timings — still needs
a clock, and routing every such read through this module keeps the
boundary auditable in one place:

* this file is the only module allowlisted by DET002, so a raw
  ``time.perf_counter()`` anywhere else in the tree still fires;
* nothing returned here may be folded into ``SimResult.metrics``, the
  determinism chain, ``result_fingerprint`` or an engine cache key (see
  DESIGN.md §5.5).
"""

from __future__ import annotations

import time as _time


def now() -> float:
    """Monotonic host seconds; for measuring host-side intervals."""
    return _time.perf_counter()
