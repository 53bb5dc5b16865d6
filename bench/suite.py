"""The benchmark's four workloads, defined on the simulator's public API.

A workload is a list of simulation runs (``RunSpec``) executed through
``repro.sim.engine.run_many`` — the path every experiment takes — or, for
``fig4-regen``, the headline experiment itself (``repro.experiments.fig4``).
Each run's ``SimScale.seed`` is derived from the workload seed
(:func:`run_seed`); nothing a workload passes to the simulator depends on
which workload it is.

Horizons are shorter than a full regeneration's (fig4 at 3k instead of
12k instructions per core), so that one pass takes a few seconds and a
timed run holds several passes.  ``quick`` divides them by ten for the
smoke test.
"""

from __future__ import annotations

from dataclasses import dataclass

#: The 64-entry Commit Block Predictor with its default (MaxStallTime)
#: metric, as in the paper's headline configuration.
CBP64 = ("cbp", {"entries": 64})

#: Scale divisor of ``--quick`` mode.
QUICK_DIVISOR = 10

FIG4_APPS = ("art", "fft", "radix")


@dataclass(frozen=True)
class Cell:
    """One simulation run of a workload."""

    kind: str  # "parallel" | "bundle" | "alone"
    workload: str
    scheduler: str
    instructions: int
    provider: tuple | None = None
    slot: int | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: Worker processes for ``run_many`` in timed passes.  Traced passes
    #: always use one, so every span is recorded in the measuring process.
    jobs: int
    cells: tuple[Cell, ...] = ()
    #: Times the cell list is run per pass, each time on other seeds.
    replicas: int = 1
    #: Instructions per core of the fig4 regeneration (0: not fig4).
    fig4_instructions: int = 0

    @property
    def is_fig4(self) -> bool:
        return self.fig4_instructions > 0


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "fig4-regen",
            "cold regeneration of the Fig. 4 table (21 runs on 2 workers) and "
            "warm reruns: the only workload that uses the worker pool, the "
            "experiment layer and a many-run result cache",
            jobs=2,
            fig4_instructions=3_000,
        ),
        Workload(
            "parallel-busy",
            "8-core Table 2 apps under four policies, one after another in "
            "process: the core and cache models take over half the host "
            "time, the target of busy-cycle work",
            jobs=1,
            cells=(
                Cell("parallel", "fft", "fr-fcfs", 5_000),
                Cell("parallel", "swim", "casras-crit", 5_000, CBP64),
                Cell("parallel", "ocean", "tcm", 5_000),
                Cell("parallel", "art", "crit-casras", 5_000, CBP64),
            ),
            replicas=2,
        ),
        Workload(
            "alone-idle",
            "each RFGI app alone on the 4-core machine under PAR-BS: one "
            "active core with long DRAM stalls, so the engine loop and "
            "det-chain snapshots take their largest share",
            jobs=1,
            cells=tuple(
                Cell("alone", "RFGI", "par-bs", 10_000, slot=slot)
                for slot in range(4)
            ),
            replicas=4,
        ),
        Workload(
            "mem-contention",
            "RFGI under Crit-RL+CBP64 and MORSE-P plus 8-core radix under "
            "PAR-BS: the costliest scheduler policies, so select takes its "
            "largest share of host time",
            jobs=1,
            cells=(
                Cell("bundle", "RFGI", "crit-rl", 10_000, CBP64),
                Cell("bundle", "RFGI", "morse-p", 10_000),
                Cell("parallel", "radix", "par-bs", 8_000),
            ),
            replicas=3,
        ),
    )
}


def warmup(instructions: int) -> int:
    """Warm-up instructions for a horizon, by the rule the experiments use
    (``repro.experiments.common.experiment_scale``)."""
    return max(500, instructions // 10)


def scaled(instructions: int, quick: bool) -> int:
    return instructions // QUICK_DIVISOR if quick else instructions


def run_specs(workload: Workload, seed: int, quick: bool):
    """The ``RunSpec`` of every cell, in run order."""
    from repro.config import SimScale
    from repro.sim.engine import RunSpec

    specs = []
    for replica in range(workload.replicas):
        for index, cell in enumerate(workload.cells):
            n = scaled(cell.instructions, quick)
            run = replica * len(workload.cells) + index
            specs.append(
                RunSpec(
                    kind=cell.kind,
                    workload=cell.workload,
                    scheduler=cell.scheduler,
                    provider_spec=cell.provider,
                    scale=SimScale(
                        instructions_per_core=n,
                        warmup_instructions=warmup(n),
                        seed=run_seed(
                            seed, replica if cell.kind == "alone" else run
                        ),
                    ),
                    slot=cell.slot,
                )
            )
    return specs


def run_seed(seed: int, index: int) -> int:
    """The seed of a workload's ``index``-th run.

    Runs get seeds of their own, so that their costs vary independently
    and the cost of a pass varies less from one ``--seed`` to the next
    (measured: the quartile spread of mem-contention's pass time over ten
    seeds halves).  The alone runs of one replica share a seed: they are
    the alone baselines of one bundle instance, and they share its traces
    (with a seed each, every alone run generates a whole bundle's traces,
    and the pass gets slower and varies more).  Bundles seed their four
    applications ``seed .. seed + 3``, hence the stride of ten.
    """
    return 1000 * seed + 10 * index


def pass_seed(seed: int, repeat: int) -> int:
    """The workload seed of the ``repeat``-th cold pass of an invocation
    run with ``--seed seed``.

    Each repeat simulates other inputs, so that an invocation's median
    averages over several draws of the simulated work, which varies more
    from seed to seed than the host does from pass to pass.  Repeat 0 is
    also what traced passes run.  Fewer than 1000 repeats fit in an
    invocation's time budget, so seeds never collide.
    """
    return 1000 * seed + repeat


def child_env(workload: Workload, quick: bool, one_worker: bool) -> dict:
    """The workload's own ``REPRO_*`` settings (besides the cache dir)."""
    jobs = 1 if one_worker else workload.jobs
    env = {"REPRO_JOBS": str(jobs)}
    if workload.is_fig4:
        env["REPRO_INSTRUCTIONS"] = str(
            scaled(workload.fig4_instructions, quick)
        )
    return env


def run_pass(workload: Workload, seed: int, quick: bool):
    """Execute one pass; returns the fig4 result (None for cell workloads).

    Reads ``REPRO_JOBS`` / ``REPRO_INSTRUCTIONS`` / ``REPRO_CACHE_DIR``
    from the environment the caller set up (see :func:`child_env`).
    """
    import os

    from repro.experiments import fig4
    from repro.sim import engine

    if workload.is_fig4:
        return fig4.run(apps=FIG4_APPS, seeds=(seed,))
    engine.run_many(
        run_specs(workload, seed, quick), jobs=int(os.environ["REPRO_JOBS"])
    )
    return None


def run_count(workload: Workload) -> int:
    """Simulations in one pass: per fig4 app, the FR-FCFS baseline plus
    one run per predictor of ``repro.experiments.fig4.PREDICTORS`` (a
    pass that makes another number fails its check)."""
    if workload.is_fig4:
        return (1 + 6) * len(FIG4_APPS)
    return len(workload.cells) * workload.replicas


def expected_commits(workload: Workload, seed: int, quick: bool):
    """Per run, in run order: the instruction count each core must commit
    (its whole trace; an idle core of an ``alone`` run commits none)."""
    from repro.config import SystemConfig

    parallel_cores = SystemConfig.parallel_default().cores
    if workload.is_fig4:
        from repro.experiments.common import experiment_scale

        scale = experiment_scale(seed)
        length = scale.instructions_per_core + scale.warmup_instructions
        return [[length] * parallel_cores] * run_count(workload)
    bundle_cores = SystemConfig.multiprogrammed_default().cores
    expected = []
    for spec in run_specs(workload, seed, quick):
        length = (
            spec.scale.instructions_per_core + spec.scale.warmup_instructions
        )
        cores = parallel_cores if spec.kind == "parallel" else bundle_cores
        expected.append(
            [
                length if spec.slot is None or core == spec.slot else 0
                for core in range(cores)
            ]
        )
    return expected
