"""System configuration objects.

Every structural or timing parameter from the paper's Tables 1 and 3 lives
here, so experiments can express "the Table 1/Table 3 machine" as a default
and sweep individual parameters (ranks, memory speed, load-queue size)
without touching simulator code.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

#: Unit-bearing aliases.  At runtime these are plain ``int``/``float``;
#: their value is that the semantic analyzer
#: (:mod:`repro.analysis.semantic.domains`) treats any attribute
#: annotated with one as ground truth for the cycle-domain pass, so a
#: renamed or newly added timing field keeps its clock without anyone
#: editing the analyzer's seed tables.
DramCycles = int
CpuCycles = int
Nanos = float


@dataclass(frozen=True)
class DramTimings:
    """DDR3 timing parameters, in DRAM command-clock cycles.

    Field names follow the Micron datasheet / paper Table 3 notation.
    ``data_rate_mtps`` is the DDR transfer rate (e.g. 2133 MT/s); the command
    clock runs at half that.
    """

    name: str
    data_rate_mtps: int
    tRCD: DramCycles
    tCL: DramCycles
    tWL: DramCycles
    tCCD: DramCycles
    tWTR: DramCycles
    tWR: DramCycles
    tRTP: DramCycles
    tRP: DramCycles
    tRRD: DramCycles
    tRTRS: DramCycles
    tRAS: DramCycles
    tRC: DramCycles
    tRFC: DramCycles
    burst_length: int = 8
    # 8,192 refresh commands every 64 ms (paper Table 3) => one REF per
    # 64 ms / 8192 = 7.8125 us.  Expressed in DRAM cycles at build time.
    refresh_interval_us: Nanos = 7.8125
    #: Four-activate window: at most four ACTIVATEs to a rank within any
    #: rolling ``tFAW`` cycles.  ``None`` derives ``4 * tRRD`` — the
    #: loosest JEDEC-legal value, under which tRRD spacing alone already
    #: satisfies the window; datasheets with a tighter power budget set
    #: it explicitly.
    tFAW: DramCycles | None = None

    @property
    def clock_mhz(self) -> float:
        """Command-clock frequency in MHz (half the DDR data rate)."""
        return self.data_rate_mtps / 2.0

    @property
    def burst_cycles(self) -> DramCycles:
        """Data-bus occupancy of one burst, in command-clock cycles."""
        return self.burst_length // 2

    @property
    def refresh_interval_cycles(self) -> DramCycles:
        """DRAM cycles between successive REF commands (tREFI)."""
        return int(self.refresh_interval_us * self.clock_mhz)

    @property
    def effective_tFAW(self) -> DramCycles:
        """Four-activate window in DRAM cycles (derived when unset)."""
        return self.tFAW if self.tFAW is not None else 4 * self.tRRD


#: Paper Table 3: Micron DDR3-2133 (MT41J128M8).
DDR3_2133 = DramTimings(
    name="DDR3-2133",
    data_rate_mtps=2133,
    tRCD=14,
    tCL=14,
    tWL=7,
    tCCD=4,
    tWTR=8,
    tWR=16,
    tRTP=8,
    tRP=14,
    tRRD=6,
    tRTRS=2,
    tRAS=36,
    tRC=50,
    tRFC=118,
)

#: DDR3-1600 device used by the Section 5.6 rank sweep.
DDR3_1600 = DramTimings(
    name="DDR3-1600",
    data_rate_mtps=1600,
    tRCD=11,
    tCL=11,
    tWL=8,
    tCCD=4,
    tWTR=6,
    tWR=12,
    tRTP=6,
    tRP=11,
    tRRD=5,
    tRTRS=2,
    tRAS=28,
    tRC=39,
    tRFC=88,
)

#: DDR3-1066 device mentioned in Sections 4 and 5.8.1.
DDR3_1066 = DramTimings(
    name="DDR3-1066",
    data_rate_mtps=1066,
    tRCD=7,
    tCL=7,
    tWL=6,
    tCCD=4,
    tWTR=4,
    tWR=8,
    tRTP=4,
    tRP=7,
    tRRD=4,
    tRTRS=2,
    tRAS=20,
    tRC=27,
    tRFC=59,
)


@dataclass(frozen=True)
class DramConfig:
    """Geometry and policy of the DRAM subsystem (paper Table 3)."""

    timings: DramTimings = DDR3_2133
    channels: int = 4
    ranks_per_channel: int = 4
    banks_per_rank: int = 8
    row_buffer_bytes: int = 1024
    rows_per_bank: int = 16384
    transaction_queue_entries: int = 64
    #: Non-critical requests older than this many DRAM cycles are promoted
    #: (Section 3.2 starvation cap).
    starvation_cap_dram_cycles: int = 6000
    #: CPU clock cycles per DRAM command-clock cycle.  None derives it
    #: from the device clock and the 4.27 GHz core clock (DDR3-2133 -> 4,
    #: DDR3-1600 -> 5, DDR3-1066 -> 8), so that slower devices really are
    #: slower in CPU time.
    cpu_cycles_per_dram_cycle: int | None = None

    @property
    def cpu_ratio(self) -> int:
        if self.cpu_cycles_per_dram_cycle is not None:
            return self.cpu_cycles_per_dram_cycle
        return max(1, round(4270.0 / self.timings.clock_mhz))
    #: Open-page policy: a conflicting request may only precharge a row
    #: that has been idle this many DRAM cycles (protects in-flight
    #: row-hit trains from eager precharges between member arrivals).
    row_idle_precharge_cycles: int = 12
    #: Paper-faithful transaction queue: writes compete with reads under
    #: the scheduler's normal policy (the 2013-era single 64-entry
    #: transaction queue).  False switches to a modern buffered
    #: write-drain design (writes only drain in batches), which weakens
    #: criticality scheduling's read-over-write advantage.
    unified_queue: bool = True

    def scaled(self, **changes) -> "DramConfig":
        """Return a copy with the given fields replaced."""
        return dataclasses.replace(self, **changes)


@dataclass(frozen=True)
class CoreConfig:
    """Out-of-order core parameters (paper Table 1)."""

    frequency_ghz: float = 4.27
    fetch_width: int = 4
    issue_width: int = 4
    commit_width: int = 4
    rob_entries: int = 128
    load_queue_entries: int = 32
    store_queue_entries: int = 32
    int_units: int = 2
    fp_units: int = 2
    load_ports: int = 2
    store_ports: int = 2
    branch_units: int = 2
    int_latency: int = 1
    fp_latency: int = 3
    branch_latency: int = 1
    branch_mispredict_penalty: int = 9

    def __post_init__(self):
        # A type with no unit never issues (its booking loop never ends),
        # and a zero latency completes an instruction in the cycle whose
        # completions have already run.
        for name in ("int_units", "fp_units", "branch_units", "load_ports",
                     "store_ports", "int_latency", "fp_latency",
                     "branch_latency"):
            if getattr(self, name) < 1:
                raise ValueError(
                    f"CoreConfig.{name} must be at least 1, "
                    f"not {getattr(self, name)}"
                )

    def scaled(self, **changes) -> "CoreConfig":
        return dataclasses.replace(self, **changes)


@dataclass(frozen=True)
class CacheConfig:
    """One cache level's geometry and latency."""

    size_bytes: int
    line_bytes: int
    ways: int
    round_trip_latency: int
    mshr_entries: int

    def __post_init__(self):
        # A line is found by scanning the live slots of its set, so every
        # cache needs a set of at least one way; a zero round trip
        # completes a load in the cycle whose completions already ran.
        for name in ("size_bytes", "line_bytes", "ways",
                     "round_trip_latency", "mshr_entries"):
            if getattr(self, name) < 1:
                raise ValueError(
                    f"CacheConfig.{name} must be at least 1, "
                    f"not {getattr(self, name)}"
                )
        if self.sets < 1:
            raise ValueError(
                f"CacheConfig holds no set: size_bytes {self.size_bytes} "
                f"is below one set of {self.ways} ways of "
                f"{self.line_bytes}-byte lines"
            )

    @property
    def sets(self) -> int:
        return self.size_bytes // (self.line_bytes * self.ways)


#: Paper Table 1: 32 kB, 32 B lines, 4-way dL1, 3-cycle round trip.
L1D_DEFAULT = CacheConfig(
    size_bytes=32 * 1024, line_bytes=32, ways=4, round_trip_latency=3, mshr_entries=16
)

#: Paper Table 3: 4 MB, 64 B lines, 8-way shared L2, 32-cycle round trip.
L2_DEFAULT = CacheConfig(
    size_bytes=4 * 1024 * 1024, line_bytes=64, ways=8, round_trip_latency=32, mshr_entries=64
)


@dataclass(frozen=True)
class PrefetcherConfig:
    """L2 stream prefetcher (Section 5.5): 64 streams, distance 64, degree 4."""

    enabled: bool = False
    streams: int = 64
    distance: int = 64
    degree: int = 4


@dataclass(frozen=True)
class SystemConfig:
    """The whole simulated machine."""

    cores: int = 8
    core: CoreConfig = CoreConfig()
    l1d: CacheConfig = L1D_DEFAULT
    l2: CacheConfig = L2_DEFAULT
    dram: DramConfig = DramConfig()
    prefetcher: PrefetcherConfig = PrefetcherConfig()

    def __post_init__(self):
        # The inclusive L2 holds whole L1 lines, and each L2 line covers a
        # whole number of them (MemoryHierarchy._covered_l1_lines).
        if self.l2.line_bytes % self.l1d.line_bytes:
            raise ValueError(
                f"SystemConfig.l2.line_bytes ({self.l2.line_bytes}) must be "
                f"a multiple of l1d.line_bytes ({self.l1d.line_bytes})"
            )

    def scaled(self, **changes) -> "SystemConfig":
        return dataclasses.replace(self, **changes)

    @staticmethod
    def parallel_default() -> "SystemConfig":
        """8 cores, 4 channels: the parallel-workload machine."""
        return SystemConfig()

    @staticmethod
    def multiprogrammed_default() -> "SystemConfig":
        """4 cores, 2 channels, halved L2 MSHRs (Section 5.8.2)."""
        return SystemConfig(
            cores=4,
            dram=DramConfig(channels=2),
            l2=dataclasses.replace(L2_DEFAULT, mshr_entries=32),
        )


@dataclass(frozen=True)
class SimScale:
    """Knobs trading fidelity for run time.

    The paper simulates 5x10^8 instructions per core; a pure-Python model
    cannot.  Each core runs a trace of ``instructions_per_core +
    warmup_instructions`` instructions to completion.  Nothing excludes
    the warm-up from statistics: it only lengthens each trace, and every
    statistic covers the whole run.
    """

    instructions_per_core: int = 20_000
    warmup_instructions: int = 2_000
    seed: int = 1

    def scaled(self, **changes) -> "SimScale":
        return dataclasses.replace(self, **changes)


#: A very small scale for unit tests.
TINY_SCALE = SimScale(instructions_per_core=1_500, warmup_instructions=200)

#: Default scale for examples and benchmarks.
DEFAULT_SCALE = SimScale()
