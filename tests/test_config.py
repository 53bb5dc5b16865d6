"""Configuration objects: presets, derived values, scaling helpers."""

import dataclasses

import pytest

from repro.config import (
    DDR3_1066,
    DDR3_1600,
    DDR3_2133,
    CacheConfig,
    CoreConfig,
    DramConfig,
    SimScale,
    SystemConfig,
    L1D_DEFAULT,
    L2_DEFAULT,
    PrefetcherConfig,
)


class TestDramTimings:
    def test_ddr3_2133_matches_paper_table3(self):
        t = DDR3_2133
        assert t.tRCD == 14
        assert t.tCL == 14
        assert t.tWL == 7
        assert t.tCCD == 4
        assert t.tWTR == 8
        assert t.tWR == 16
        assert t.tRTP == 8
        assert t.tRP == 14
        assert t.tRRD == 6
        assert t.tRTRS == 2
        assert t.tRAS == 36
        assert t.tRC == 50
        assert t.tRFC == 118
        assert t.burst_length == 8

    def test_clock_is_half_data_rate(self):
        assert DDR3_2133.clock_mhz == pytest.approx(1066.5)
        assert DDR3_1066.clock_mhz == pytest.approx(533.0)

    def test_burst_occupies_half_burst_length_cycles(self):
        assert DDR3_2133.burst_cycles == 4

    def test_refresh_interval_is_7_8125_us(self):
        # 8192 refreshes per 64 ms.
        cycles = DDR3_2133.refresh_interval_cycles
        assert cycles == int(7.8125 * DDR3_2133.clock_mhz)

    def test_slower_devices_have_fewer_refresh_cycles(self):
        assert (
            DDR3_1066.refresh_interval_cycles
            < DDR3_1600.refresh_interval_cycles
            < DDR3_2133.refresh_interval_cycles
        )

    def test_trc_at_least_tras_plus_trp(self):
        for t in (DDR3_1066, DDR3_1600, DDR3_2133):
            assert t.tRC >= t.tRAS + t.tRP - 1


class TestCacheConfig:
    def test_l1_geometry(self):
        assert L1D_DEFAULT.sets == 32 * 1024 // (32 * 4)

    def test_l2_geometry(self):
        assert L2_DEFAULT.sets == 4 * 1024 * 1024 // (64 * 8)

    def test_custom_sets(self):
        c = CacheConfig(size_bytes=1024, line_bytes=64, ways=2,
                        round_trip_latency=3, mshr_entries=4)
        assert c.sets == 8

    @pytest.mark.parametrize("field", [
        "size_bytes", "line_bytes", "ways", "round_trip_latency",
        "mshr_entries",
    ])
    def test_cache_rejects_a_field_below_one(self, field):
        """A cache needs a set to scan, and a zero L1 round trip completes
        a load in a cycle whose completions already ran."""
        with pytest.raises(ValueError, match=f"CacheConfig.{field} must be "
                                             "at least 1, not 0"):
            dataclasses.replace(L1D_DEFAULT, **{field: 0})
        with pytest.raises(ValueError, match=field):
            dataclasses.replace(L2_DEFAULT, **{field: -1})

    def test_cache_rejects_a_geometry_with_no_set(self):
        with pytest.raises(ValueError, match="holds no set"):
            CacheConfig(size_bytes=127, line_bytes=32, ways=4,
                        round_trip_latency=3, mshr_entries=4)
        assert dataclasses.replace(L1D_DEFAULT, size_bytes=128).sets == 1

    def test_l2_lines_must_hold_whole_l1_lines(self):
        """An L2 line smaller than an L1 line, or not a multiple of one,
        cannot hold the L1 lines an inclusive L2 covers."""
        for line in (16, 48):
            with pytest.raises(ValueError, match="multiple of l1d.line_bytes"):
                SystemConfig(l2=dataclasses.replace(L2_DEFAULT,
                                                    line_bytes=line))
        with pytest.raises(ValueError, match="multiple of l1d.line_bytes"):
            SystemConfig().scaled(
                l1d=dataclasses.replace(L1D_DEFAULT, line_bytes=128))
        assert SystemConfig(l2=dataclasses.replace(
            L2_DEFAULT, line_bytes=32)).l2.line_bytes == 32


class TestSystemConfig:
    def test_parallel_default_is_table1_table3_machine(self):
        cfg = SystemConfig.parallel_default()
        assert cfg.cores == 8
        assert cfg.core.rob_entries == 128
        assert cfg.core.load_queue_entries == 32
        assert cfg.dram.channels == 4
        assert cfg.dram.ranks_per_channel == 4
        assert cfg.dram.banks_per_rank == 8
        assert cfg.dram.timings is DDR3_2133

    def test_multiprogrammed_default_halves_resources(self):
        cfg = SystemConfig.multiprogrammed_default()
        assert cfg.cores == 4
        assert cfg.dram.channels == 2
        assert cfg.l2.mshr_entries == 32

    def test_scaled_replaces_fields(self):
        cfg = SystemConfig().scaled(cores=2)
        assert cfg.cores == 2
        assert cfg.dram.channels == 4  # untouched

    def test_core_scaled(self):
        core = CoreConfig().scaled(load_queue_entries=48)
        assert core.load_queue_entries == 48
        assert core.rob_entries == 128

    def test_dram_scaled(self):
        d = DramConfig().scaled(ranks_per_channel=1)
        assert d.ranks_per_channel == 1

    @pytest.mark.parametrize("field", [
        "int_units", "fp_units", "branch_units", "load_ports",
        "store_ports", "int_latency", "fp_latency", "branch_latency",
    ])
    def test_core_rejects_no_units_and_no_latency(self, field):
        """A type with no unit never issues: the run would hang inside
        one step, where no cycle cap can stop it.  A zero latency would
        complete in a cycle whose completions already ran."""
        with pytest.raises(ValueError, match=f"CoreConfig.{field} must be "
                                             "at least 1, not 0"):
            CoreConfig(**{field: 0})
        with pytest.raises(ValueError, match=field):
            CoreConfig().scaled(**{field: -1})
        assert getattr(CoreConfig(**{field: 1}), field) == 1

    @pytest.mark.parametrize(
        "config",
        [DDR3_2133, DramConfig(), CoreConfig(), L1D_DEFAULT,
         PrefetcherConfig(), SystemConfig(), SimScale()],
        ids=lambda config: type(config).__name__,
    )
    def test_configs_frozen(self, config):
        """Every field of every config class rejects assignment: results
        are cached under the config's value, so it must not change."""
        assert dataclasses.fields(config)
        for f in dataclasses.fields(config):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(config, f.name, getattr(config, f.name))


class TestClockRatio:
    def test_ratio_derived_from_device_clock(self):
        assert DramConfig(timings=DDR3_2133).cpu_ratio == 4
        assert DramConfig(timings=DDR3_1600).cpu_ratio == 5
        assert DramConfig(timings=DDR3_1066).cpu_ratio == 8

    def test_explicit_ratio_wins(self):
        cfg = DramConfig(timings=DDR3_1066, cpu_cycles_per_dram_cycle=4)
        assert cfg.cpu_ratio == 4

    def test_faster_device_really_faster_end_to_end(self):
        """A single uncontended read completes in fewer CPU cycles on
        DDR3-2133 than on DDR3-1066."""
        from repro.dram.controller import MemorySystem
        from repro.sched.frfcfs import FrFcfsScheduler

        def read_latency(timings):
            ms = MemorySystem(DramConfig(timings=timings, channels=1),
                              lambda c: FrFcfsScheduler())
            done = []
            txn = ms.make_transaction(0, core=0,
                                      callback=lambda d: done.append(d))
            ms.try_enqueue(txn, 0)
            cycle = 0
            while not done and cycle < 100_000:
                ms.step(cycle)
                cycle += 1
            return ms.dram_to_cpu(done[0])

        assert read_latency(DDR3_2133) < read_latency(DDR3_1066)


class TestSimScale:
    def test_defaults(self):
        s = SimScale()
        assert s.instructions_per_core > 0
        assert s.warmup_instructions >= 0

    def test_scaled(self):
        s = SimScale().scaled(seed=9)
        assert s.seed == 9
