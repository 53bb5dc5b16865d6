"""Whole-program semantic analyzer for the simulator.

The lint pass (:mod:`repro.analysis.lint`) checks one line at a time;
the passes here understand the *simulator's* semantics across modules:

* :mod:`repro.analysis.semantic.domains` — cycle-domain dataflow
  (SEM001–SEM003): CPU cycles, DRAM command-clock cycles, nanoseconds
  and dimensionless counts must never mix without a sanctioned cast.
* :mod:`repro.analysis.semantic.detcov` — det-state coverage audit
  (SEM010): every mutable field on a simulator class must be folded
  into the determinism hash-chain or explicitly allowlisted.
* :mod:`repro.analysis.semantic.effects` — interprocedural
  effect/purity inference (SEM030–SEM032): certified-pure hooks must
  stay pure, RNG/IO must not reach per-cycle model code, and
  ``# repro-batch:`` markers must cite certificates the current
  analysis still grants.  :mod:`repro.analysis.semantic.batchability`
  turns the same inference into ``batchability.json`` — a
  window-invariant / monotone-accumulating / per-cycle-only
  classification of every hot-path hook and scheduler, the proof
  surface for the model-batching work.

The scheduler contract (bounded queueing delay, no writes to controller
state) is checked at run time rather than here: by the starvation
adversary in ``tests/test_starvation_adversary.py`` and by the
controller snapshots :mod:`repro.analysis.effectcheck` takes around
every scheduler hook.

Shared infrastructure — the module graph loader
(:mod:`~repro.analysis.semantic.modgraph`), per-function CFG builder
(:mod:`~repro.analysis.semantic.cfg`) and fixpoint dataflow engine
(:mod:`~repro.analysis.semantic.dataflow`) — is reusable by future
passes.

CLI: ``python -m repro analyze [paths...] [--batchability OUT]``.
"""

from repro.analysis.semantic.driver import (  # noqa: F401
    AnalysisReport,
    SEMANTIC_RULES,
    analyze_paths,
    analyze_source,
    main,
)
