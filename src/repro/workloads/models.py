"""Statistical application models.

Each :class:`AppModel` captures the published character of one benchmark —
instruction mix, footprint, locality structure, dependency shape — at the
level of detail the memory-scheduling experiments are sensitive to:

* how many loads reach DRAM (``phase_duty`` / ``solo_rate`` and the
  hot/warm split for ordinary accesses);
* how row-buffer-friendly they are (stream vs. random bursts);
* how serialised they are (pointer-chase singletons and chase bursts:
  art's double-pointer neural nets are the paper's Section 5.3.1 anomaly);
* how many static loads exist (ocean's ~1,700 critical statics vs. art's
  ~156 drive the CBP table-size findings);
* how imbalanced the threads are (which threads hog bandwidth while
  others are latency-bound at any instant).

Values are chosen from the workload descriptions in the paper (Tables 2
and 4) and the general literature on these suites, then calibrated
toward the paper's reported operating point (Figure 1: 6.1% of dynamic
loads block the ROB head and 48.6% of cycles are blocked under FR-FCFS,
with moderate queue contention).  The machine does not sit there: the
recorded Figure 1 (``benchmarks/results/fig1.txt``, 12k instructions per
core) averages 4.66% blocking loads and 70.69% blocked cycles, 64.2-76.7%
per app, so these apps are more memory-bound than the paper's.
EXPERIMENTS.md discusses this and the remaining fidelity gaps.
"""

from __future__ import annotations

from dataclasses import dataclass

KB = 1024
MB = 1024 * KB


@dataclass(frozen=True)
class AppModel:
    """Parameters consumed by :mod:`repro.workloads.synthetic`.

    Determinism contract: models are frozen (hashable) and carry no RNG
    state of their own.  Trace generation in :mod:`repro.workloads.synthetic`
    derives every random stream from ``(model, seed, thread_id)`` through a
    locally constructed ``random.Random``, and its trace cache is keyed on
    the *full* model value — two models that differ in any field never
    share traces, even if they share a ``name``.
    """

    name: str
    #: Instruction mix (fractions of the dynamic stream); DRAM-bound burst
    #: loads are planted on top of this base mix.
    load_frac: float = 0.11
    store_frac: float = 0.08
    branch_frac: float = 0.14
    #: Fraction of compute instructions that are floating-point.
    fp_frac: float = 0.30
    mispredict_rate: float = 0.04
    #: Total data footprint per thread (private + shared view).
    footprint_bytes: int = 32 * MB
    #: Small hot region (stack/locals) absorbing most accesses; L1-resident.
    hot_bytes: int = 16 * KB
    #: Fraction of ordinary loads hitting the hot region.
    hot_frac: float = 0.80
    #: Medium per-thread region that fits in the shared L2 but not in L1.
    warm_bytes: int = 192 * KB
    #: Of non-hot ordinary loads, fraction going to the warm region (used
    #: only when phase_duty/solo_rate are derived rather than explicit).
    warm_frac: float = 0.70
    #: Of DRAM-bound bursts, relative weight that streams sequentially.
    stream_frac: float = 0.55
    #: Of DRAM-bound bursts, relative weight forming serial pointer chases.
    pointer_chase_frac: float = 0.0
    #: Fraction of cold accesses that go to the thread-shared region.
    shared_frac: float = 0.15
    #: Static load population (drives CBP aliasing behaviour).
    static_loads: int = 300
    #: Loop structure.
    body_count: int = 12
    body_len: int = 96
    #: Mean direct consumers per load (CLPT's signal).
    consumer_mean: float = 1.15
    #: Probability that a loop visit runs as a memory phase (None derives
    #: it from hot/warm fractions so the cold-load rate matches them).
    phase_duty: float | None = 0.05
    #: Probability that each body iteration fires its singleton cold miss
    #: (None derives it from hot/warm fractions and ``solo_frac``).
    solo_rate: float | None = 0.50
    #: Per-thread load imbalance: thread i's phase_duty/solo_rate are
    #: scaled by a deterministic factor in [1-imbalance, 1+imbalance].
    #: Real SPMD programs are imbalanced (data-dependent partitioning,
    #: stencil boundaries, master-thread work), which is what makes some
    #: threads latency-bound while others hog bandwidth at any instant.
    thread_imbalance: float = 0.6
    #: Share of DRAM-bound loads that are isolated singleton misses when
    #: rates are derived (kept for the derived path; explicit
    #: ``solo_rate`` overrides it).
    solo_frac: float = 0.30
    #: Mean memory-level-parallelism burst size: DRAM-bound loads are
    #: emitted in spread clusters of independent loads (the first blocks
    #: the ROB head; the followers' latency is largely masked).
    #: Pointer-chase bursts serialise regardless of this value.
    mlp: float = 4.0
    #: Byte stride of ordinary streaming accesses (burst gathers walk
    #: whole cache lines regardless).
    stream_stride: int = 8
    #: Memory-sensitivity class for Table 4 ('P', 'C', or 'M'); parallel
    #: apps are all effectively 'M'.
    sensitivity: str = "M"


#: The nine parallel applications of Table 2 (run with 8 threads each).
PARALLEL_APPS: dict[str, AppModel] = {
    # SPEC-OMP art: self-organising map; two levels of dynamically
    # allocated pointers (serial chases); few static loads; the paper's
    # most reordering-sensitive app.
    "art": AppModel(
        name="art",
        footprint_bytes=96 * MB,
        pointer_chase_frac=0.6,
        static_loads=160,
        body_count=6,
        mlp=3.0,
        phase_duty=0.04,
        solo_rate=0.75,
        consumer_mean=1.1,
        mispredict_rate=0.03,
        thread_imbalance=0.5,
    ),
    # NAS cg: sparse conjugate gradient — indirect indexed gathers.
    "cg": AppModel(
        name="cg",
        footprint_bytes=28 * MB,
        stream_frac=0.35,
        pointer_chase_frac=0.10,
        static_loads=220,
        mlp=4.0,
        phase_duty=0.05,
        solo_rate=0.55,
        fp_frac=0.55,
        consumer_mean=1.3,
    ),
    # SPEC-OMP equake: unstructured-mesh earthquake model.
    "equake": AppModel(
        name="equake",
        footprint_bytes=36 * MB,
        stream_frac=0.50,
        pointer_chase_frac=0.08,
        static_loads=380,
        mlp=4.0,
        phase_duty=0.05,
        solo_rate=0.50,
        fp_frac=0.50,
    ),
    # SPLASH-2 fft: strided butterfly phases — streaming gathers.
    "fft": AppModel(
        name="fft",
        footprint_bytes=48 * MB,
        stream_frac=0.60,
        static_loads=140,
        mlp=5.0,
        phase_duty=0.06,
        solo_rate=0.55,
        fp_frac=0.60,
        stream_stride=16,
        mispredict_rate=0.02,
    ),
    # NAS mg: multigrid solver — regular stencil sweeps.
    "mg": AppModel(
        name="mg",
        footprint_bytes=56 * MB,
        stream_frac=0.62,
        static_loads=260,
        mlp=6.0,
        phase_duty=0.07,
        solo_rate=0.45,
        fp_frac=0.55,
        mispredict_rate=0.02,
    ),
    # SPLASH-2 ocean: many distinct stencil loops => large static load
    # population (the paper's ~1,700 critical statics per core).
    "ocean": AppModel(
        name="ocean",
        footprint_bytes=52 * MB,
        stream_frac=0.48,
        static_loads=2400,
        body_count=40,
        mlp=5.0,
        phase_duty=0.06,
        solo_rate=0.60,
        fp_frac=0.50,
    ),
    # SPLASH-2 radix: integer sort — scatter writes, random histogram reads.
    "radix": AppModel(
        name="radix",
        footprint_bytes=20 * MB,
        store_frac=0.10,
        stream_frac=0.25,
        static_loads=120,
        mlp=3.5,
        phase_duty=0.05,
        solo_rate=0.55,
        fp_frac=0.02,
        mispredict_rate=0.03,
    ),
    # NU-MineBench scalparc: decision-tree induction — irregular.
    "scalparc": AppModel(
        name="scalparc",
        footprint_bytes=40 * MB,
        stream_frac=0.28,
        pointer_chase_frac=0.20,
        static_loads=420,
        mlp=3.5,
        phase_duty=0.04,
        solo_rate=0.65,
        mispredict_rate=0.06,
        fp_frac=0.10,
    ),
    # SPEC-OMP swim: shallow-water stencils — highly regular streaming.
    "swim": AppModel(
        name="swim",
        footprint_bytes=60 * MB,
        stream_frac=0.72,
        static_loads=180,
        mlp=6.0,
        phase_duty=0.08,
        solo_rate=0.45,
        fp_frac=0.65,
        mispredict_rate=0.01,
    ),
}


def _spec(name, sensitivity, **kw) -> AppModel:
    kw.setdefault("thread_imbalance", 0.0)
    return AppModel(name=name, sensitivity=sensitivity, **kw)


#: SPEC 2000 / NAS single-threaded models for the Table 4 bundles.
#: P = processor-sensitive, C = cache-sensitive, M = memory-sensitive.
SPEC_APPS: dict[str, AppModel] = {
    "ammp": _spec("ammp", "C", footprint_bytes=6 * MB, warm_bytes=768 * KB,
                  phase_duty=0.10, solo_rate=0.30, fp_frac=0.60),
    "ep": _spec("ep", "P", footprint_bytes=1 * MB, phase_duty=0.01,
                solo_rate=0.03, fp_frac=0.70, mispredict_rate=0.01),
    "lu": _spec("lu", "C", footprint_bytes=5 * MB, warm_bytes=768 * KB,
                phase_duty=0.10, solo_rate=0.25, fp_frac=0.60),
    "vpr": _spec("vpr", "C", footprint_bytes=4 * MB, warm_bytes=512 * KB,
                 phase_duty=0.08, solo_rate=0.35, mispredict_rate=0.08),
    "crafty": _spec("crafty", "P", footprint_bytes=2 * MB, phase_duty=0.01,
                    solo_rate=0.05, fp_frac=0.02, mispredict_rate=0.07),
    "mesa": _spec("mesa", "P", footprint_bytes=2 * MB, phase_duty=0.02,
                  solo_rate=0.04, fp_frac=0.45, mispredict_rate=0.02),
    "is": _spec("is", "M", footprint_bytes=40 * MB, phase_duty=0.40,
                solo_rate=0.45, mlp=8.0, stream_frac=0.35, fp_frac=0.02),
    "mg": _spec("mg", "M", footprint_bytes=56 * MB, phase_duty=0.45,
                solo_rate=0.40, stream_frac=0.62, fp_frac=0.55, mlp=10.0),
    "mgrid": _spec("mgrid", "C", footprint_bytes=6 * MB, warm_bytes=768 * KB,
                   phase_duty=0.10, solo_rate=0.22, stream_frac=0.60,
                   fp_frac=0.60),
    "parser": _spec("parser", "C", footprint_bytes=5 * MB,
                    warm_bytes=512 * KB, phase_duty=0.06, solo_rate=0.40,
                    pointer_chase_frac=0.4, mispredict_rate=0.07,
                    fp_frac=0.02),
    "sp": _spec("sp", "C", footprint_bytes=6 * MB, warm_bytes=768 * KB,
                phase_duty=0.10, solo_rate=0.25, stream_frac=0.55,
                fp_frac=0.60),
    "art": _spec("art", "C", footprint_bytes=8 * MB, warm_bytes=768 * KB,
                 phase_duty=0.10, solo_rate=0.50, pointer_chase_frac=0.6,
                 static_loads=160, fp_frac=0.45, mlp=4.0),
    "mcf": _spec("mcf", "M", footprint_bytes=80 * MB, phase_duty=0.30,
                 solo_rate=0.70, pointer_chase_frac=0.6,
                 mispredict_rate=0.06, fp_frac=0.02, mlp=4.0),
    "twolf": _spec("twolf", "M", footprint_bytes=24 * MB, phase_duty=0.30,
                   solo_rate=0.55, mispredict_rate=0.08, fp_frac=0.05,
                   mlp=5.0),
}
