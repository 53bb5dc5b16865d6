"""Correctness tooling for the simulator (machine-checked, not reviewed).

Three independent sanitizers guard the reproduction as it scales:

* :mod:`repro.analysis.lint` — a custom AST lint pass over ``src/repro``
  that flags simulator-specific hazards (nondeterminism sources, float
  arithmetic on cycle counters, shared-artifact writes that bypass
  :mod:`repro.util.atomicio`, silent exception handling, per-cycle
  allocations).  CLI: ``python -m repro lint``.
* :mod:`repro.analysis.protocol` — a shadow JEDEC DDR3 timing oracle
  that, under ``REPRO_SANITIZE=1``, observes every command the channel
  controllers issue and re-checks every Table-3 constraint from its own
  bookkeeping, so a scheduler or controller bug cannot self-certify.
* :mod:`repro.analysis.detchain` — a rolling FNV-1a hash-chain of
  architectural state sampled every N cycles, recorded on every
  :class:`~repro.sim.stats.SimResult` and compared by
  ``python -m repro check-determinism`` to pin down batched-vs-naive and
  cross-process divergence to a cycle window.
"""

from __future__ import annotations

from repro.analysis.detchain import DetChain, first_divergence
from repro.analysis.protocol import ProtocolSanitizer, ProtocolViolation

__all__ = [
    "DetChain",
    "first_divergence",
    "ProtocolSanitizer",
    "ProtocolViolation",
]
