"""Run-level results and derived metrics."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.telemetry.registry import LatencyHistogram


@dataclass
class SimResult:
    """Everything one simulation run produced.

    ``cycles`` is the cycle at which the *last* core finished (the parallel
    run-to-completion time); ``finish_cycles`` holds each core's own
    completion cycle (the multiprogrammed per-application time).
    """

    label: str
    cycles: int
    finish_cycles: list[int]
    committed: list[int]
    core_stats: list = field(default_factory=list)
    hierarchy: object = None
    channels: list = field(default_factory=list)
    providers: list = field(default_factory=list)
    hit_max_cycles: bool = False
    #: Host wall-clock seconds the run took (0.0 when not measured).
    wall_seconds: float = 0.0
    #: Final determinism hash-chain digest (see repro.analysis.detchain);
    #: None when sampling is disabled (REPRO_DETCHAIN_EVERY=0).
    det_chain: int | None = None
    #: Periodic ``(cycle, digest)`` checkpoints for divergence localisation.
    det_checkpoints: list = field(default_factory=list)
    #: Plain-data snapshot of every registered instrument at end of run
    #: (see :mod:`repro.telemetry.registry`).
    metrics: dict = field(default_factory=dict)
    #: Interval-sampler output (``REPRO_SAMPLE_EVERY``): the sampled
    #: virtual cycles and, per instrument name, the value series.
    sample_cycles: list = field(default_factory=list)
    timeseries: dict = field(default_factory=dict)
    #: Event-trace ring buffer contents (``REPRO_TRACE=1``) as raw tuples
    #: (see :mod:`repro.telemetry.trace`), plus the drop-oldest count.
    trace_events: list = field(default_factory=list)
    trace_dropped: int = 0

    @property
    def cycles_per_second(self) -> float:
        """Simulated cycles per host second (observability, not physics)."""
        return self.cycles / self.wall_seconds if self.wall_seconds else 0.0

    # -- throughput ------------------------------------------------------------

    @property
    def total_committed(self) -> int:
        return sum(self.committed)

    @property
    def system_ipc(self) -> float:
        return self.total_committed / self.cycles if self.cycles else 0.0

    def core_ipc(self, core: int) -> float:
        """Per-core IPC over that core's own execution window."""
        finish = self.finish_cycles[core]
        return self.committed[core] / finish if finish else 0.0

    # -- Figure 1 quantities ---------------------------------------------------

    def blocking_load_fraction(self) -> float:
        """Dynamic DRAM-serviced loads that blocked the ROB head / all loads."""
        loads = sum(s.loads for s in self.core_stats)
        blocking = sum(s.blocking_dram_loads for s in self.core_stats)
        return blocking / loads if loads else 0.0

    def blocked_cycle_fraction(self) -> float:
        """Fraction of core cycles spent with a DRAM load blocking commit.

        Cores that committed nothing (idle traces, e.g. the empty cores of
        an execute-alone run) are excluded: they contribute neither blocked
        nor busy cycles, so counting them would dilute the fraction.
        """
        if not self.core_stats:
            return 0.0
        cycles = blocked = 0
        for core, finish in enumerate(self.finish_cycles):
            if self.committed[core] <= 0:
                continue
            cycles += finish
            blocked += self.core_stats[core].blocked_dram_cycles
        return blocked / cycles if cycles else 0.0


def _freeze(value):
    if isinstance(value, dict):
        return tuple(sorted((k, _freeze(v)) for k, v in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    if isinstance(value, LatencyHistogram):
        return value.state()
    return value


def _stat_items(obj):
    if obj is None:
        return ()
    slots = getattr(type(obj), "__slots__", None)
    items = (
        ((k, getattr(obj, k)) for k in slots)
        if slots
        else obj.__dict__.items()
    )
    return tuple(
        sorted((k, _freeze(v)) for k, v in items if not callable(v))
    )


def result_fingerprint(result: SimResult):
    """Hashable digest of everything a run measured.

    Two runs of the same workload produce equal fingerprints iff their
    results are bit-identical — the contract the fast-forwarding loop is
    held to (``REPRO_VERIFY_SKIP``) and the determinism tests check.
    The host-side ``wall_seconds`` is deliberately excluded: it describes
    the simulator run, not the simulated machine, so it must never make
    two identical runs compare unequal.
    """
    return (
        result.cycles,
        tuple(result.finish_cycles),
        tuple(result.committed),
        result.hit_max_cycles,
        result.det_chain,
        tuple(_stat_items(s) for s in result.core_stats),
        tuple(_stat_items(c) for c in result.channels),
        _stat_items(result.hierarchy),
        _freeze(result.metrics),
        tuple(result.sample_cycles),
        _freeze(result.timeseries),
        tuple(result.trace_events),
        result.trace_dropped,
    )


def _check_uncapped(*results: SimResult) -> None:
    """Raise ``ValueError`` if any run stopped at the cycle cap."""
    for result in results:
        if result.hit_max_cycles:
            raise ValueError(
                f"{result.label}: stopped at the cycle cap, at cycle "
                f"{result.cycles}; its cycle count measures the cap, "
                "not the machine"
            )


def speedup(baseline: SimResult, result: SimResult) -> float:
    """Run-time speedup of ``result`` over ``baseline`` (same workload)."""
    _check_uncapped(baseline, result)
    if result.cycles == 0:
        raise ValueError("result has zero cycles")
    return baseline.cycles / result.cycles


def weighted_speedup(result: SimResult, alone_ipcs: list[float]) -> float:
    """Sum of per-application normalised IPCs (Snavely & Tullsen)."""
    _check_uncapped(result)
    if len(alone_ipcs) != len(result.committed):
        raise ValueError("alone_ipcs length must match core count")
    total = 0.0
    for core, alone in enumerate(alone_ipcs):
        if alone <= 0:
            raise ValueError(f"alone IPC for core {core} must be positive")
        total += result.core_ipc(core) / alone
    return total


def maximum_slowdown(result: SimResult, alone_ipcs: list[float]) -> float:
    """max over applications of IPC_alone / IPC_shared (TCM's fairness metric)."""
    _check_uncapped(result)
    if len(alone_ipcs) != len(result.committed):
        raise ValueError("alone_ipcs length must match core count")
    worst = 0.0
    for core, alone in enumerate(alone_ipcs):
        shared = result.core_ipc(core)
        if shared <= 0:
            raise ValueError(f"core {core} committed nothing")
        worst = max(worst, alone / shared)
    return worst
