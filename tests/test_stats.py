"""Run-level metrics: speedup, weighted speedup, maximum slowdown."""

import pytest

from repro.sim.stats import (
    SimResult,
    maximum_slowdown,
    result_fingerprint,
    speedup,
    weighted_speedup,
)


def result(cycles, finishes, committed):
    return SimResult(
        label="t", cycles=cycles, finish_cycles=finishes, committed=committed
    )


class TestSpeedup:
    def test_simple(self):
        base = result(2000, [2000], [100])
        fast = result(1000, [1000], [100])
        assert speedup(base, fast) == 2.0

    def test_zero_cycles_rejected(self):
        base = result(2000, [2000], [100])
        broken = result(0, [0], [0])
        with pytest.raises(ValueError):
            speedup(base, broken)


class TestCappedRunsRejected:
    """A run stopped at the cycle cap measures the cap, not the machine,
    so no metric may use it."""

    ERROR = r"radix/casras-crit: stopped at the cycle cap, at cycle 100\b"

    @staticmethod
    def capped():
        return SimResult(label="radix/casras-crit", cycles=100,
                         finish_cycles=[100], committed=[10],
                         hit_max_cycles=True)

    def test_speedup_either_side(self):
        done = result(2000, [2000], [100])
        with pytest.raises(ValueError, match=self.ERROR):
            speedup(self.capped(), done)
        with pytest.raises(ValueError, match=self.ERROR):
            speedup(done, self.capped())

    @pytest.mark.parametrize("metric", [weighted_speedup, maximum_slowdown])
    def test_fairness_metrics(self, metric):
        with pytest.raises(ValueError, match=self.ERROR):
            metric(self.capped(), [0.1])


class TestCoreIpc:
    def test_uses_own_finish_time(self):
        r = result(2000, [1000, 2000], [500, 500])
        assert r.core_ipc(0) == 0.5
        assert r.core_ipc(1) == 0.25

    def test_system_ipc(self):
        r = result(1000, [1000, 1000], [400, 600])
        assert r.system_ipc == 1.0


class TestWeightedSpeedup:
    def test_equal_to_core_count_at_parity(self):
        r = result(1000, [1000, 1000], [300, 700])
        alone = [0.3, 0.7]
        assert weighted_speedup(r, alone) == pytest.approx(2.0)

    def test_degradation_reduces_sum(self):
        r = result(2000, [2000, 2000], [300, 700])
        alone = [0.3, 0.7]
        assert weighted_speedup(r, alone) == pytest.approx(1.0)

    @pytest.mark.parametrize("alone", [[0.1, 0.1], [0.1] * 5], ids=["short", "long"])
    @pytest.mark.parametrize("metric", [weighted_speedup, maximum_slowdown])
    def test_length_mismatch_rejected(self, metric, alone):
        # Cores 2 and 3 run 10x slower than alone: two alone IPCs must not
        # judge only cores 0 and 1, and five must not index a fifth core.
        r = result(1000, [1000] * 4, [100, 100, 10, 10])
        assert metric(r, [0.1] * 4) == pytest.approx(
            2.2 if metric is weighted_speedup else 10.0
        )
        with pytest.raises(ValueError, match="length must match core count"):
            metric(r, alone)

    def test_zero_alone_ipc_rejected(self):
        r = result(1000, [1000], [300])
        with pytest.raises(ValueError):
            weighted_speedup(r, [0.0])


class TestMaximumSlowdown:
    def test_worst_app_dominates(self):
        r = result(1000, [1000, 1000], [100, 500])
        alone = [0.4, 0.5]  # app0 slowed 4x, app1 unharmed
        assert maximum_slowdown(r, alone) == pytest.approx(4.0)

    def test_no_commit_rejected(self):
        r = result(1000, [1000], [0])
        with pytest.raises(ValueError):
            maximum_slowdown(r, [1.0])


class TestBlockingFractions:
    def test_empty_stats_are_zero(self):
        r = result(100, [100], [10])
        assert r.blocking_load_fraction() == 0.0
        assert r.blocked_cycle_fraction() == 0.0


class TestFingerprint:
    def test_wall_seconds_not_in_fingerprint(self):
        """Host time describes the simulator run, not the machine: two
        results that differ only in ``wall_seconds`` fingerprint equal."""
        fast = result(1000, [900, 1000], [300, 300])
        slow = result(1000, [900, 1000], [300, 300])
        fast.wall_seconds, slow.wall_seconds = 0.25, 4.0
        assert result_fingerprint(fast) == result_fingerprint(slow)
        slow.cycles += 1
        assert result_fingerprint(fast) != result_fingerprint(slow)
