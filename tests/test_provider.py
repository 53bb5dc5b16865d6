"""Criticality providers: the processor-side interface."""

from repro.core.cbp import CbpMetric
from repro.core.provider import (
    CbpProvider,
    ClptProvider,
    CriticalityProvider,
    NaiveForwardingProvider,
    NullProvider,
)
from repro.dram.transaction import Transaction
from repro.dram.addressmap import DramLocation


def make_txn():
    return Transaction(0, DramLocation(0, 0, 0, 0, 0))


class TestNullProvider:
    def test_never_critical(self):
        p = NullProvider()
        assert p.annotate(123) == (False, 0)

    def test_hooks_are_noops(self):
        p = CriticalityProvider()
        p.on_block_start(1, 0)
        p.on_blocked_commit(1, 10, 100)
        p.on_load_consumers(1, 3)
        p.tick(5)


class TestCbpProvider:
    def test_binary_flow(self):
        p = CbpProvider(entries=64, metric=CbpMetric.BINARY)
        assert p.annotate(9) == (False, 0)
        p.on_block_start(9, 100)
        assert p.annotate(9) == (True, 1)

    def test_ranked_flow(self):
        p = CbpProvider(entries=64, metric=CbpMetric.MAX_STALL)
        p.on_block_start(9, 100)
        assert p.annotate(9) == (False, 0)  # stall not yet written
        p.on_blocked_commit(9, 250, 400)
        assert p.annotate(9) == (True, 250)

    def test_tick_resets(self):
        p = CbpProvider(entries=64, metric=CbpMetric.BINARY, reset_interval=50)
        p.on_block_start(9, 0)
        p.tick(50)
        assert p.annotate(9) == (False, 0)


class TestClptProvider:
    def test_binary_mode(self):
        p = ClptProvider(threshold=3, ranked=False)
        p.on_load_consumers(4, 5)
        assert p.annotate(4) == (True, 1)

    def test_ranked_mode(self):
        p = ClptProvider(threshold=3, ranked=True)
        p.on_load_consumers(4, 5)
        assert p.annotate(4) == (True, 5)

    def test_below_threshold(self):
        p = ClptProvider(threshold=3)
        p.on_load_consumers(4, 1)
        assert p.annotate(4) == (False, 0)


class TestNaiveForwarding:
    def test_promotes_after_latency(self):
        events = []
        p = NaiveForwardingProvider(forward_latency=10,
                                    defer=lambda c, fn: events.append((c, fn)))
        txn = make_txn()
        p.on_block_start(5, 100, txn)
        assert not txn.critical
        cycle, fn = events[0]
        assert cycle == 110
        fn()
        assert txn.critical
        assert txn.magnitude == 1
        assert p.promotions == 1

    def test_never_predicts(self):
        p = NaiveForwardingProvider()
        assert p.annotate(5) == (False, 0)

    def test_immediate_without_defer(self):
        p = NaiveForwardingProvider()
        txn = make_txn()
        p.on_block_start(5, 100, txn)
        assert txn.critical

    def test_no_txn_is_noop(self):
        p = NaiveForwardingProvider()
        p.on_block_start(5, 100, None)
        assert p.promotions == 0


class TestTickContract:
    """The core runs a provider's tick only when its next_tick_cycle says
    it is due, so a provider whose tick does work must say when."""

    def test_overriding_tick_alone_raises(self):
        import pytest

        with pytest.raises(TypeError, match="next_tick_cycle"):
            class Resetting(CriticalityProvider):
                def tick(self, cycle):
                    pass

    def test_overriding_both_or_inheriting_an_answer_is_accepted(self):
        class Due(CriticalityProvider):
            def tick(self, cycle):
                pass

            def next_tick_cycle(self, now):
                return now + 1

        class Logged(CbpProvider):
            def tick(self, cycle):
                super().tick(cycle)

        assert Due().next_tick_cycle(4) == 5
        assert Logged(reset_interval=9).next_tick_cycle(0) == 9

    def test_every_registered_provider_keeps_the_contract(self):
        """Every provider the package defines overrides tick only with
        next_tick_cycle; the kinds the figures use never tick, and CBP
        with a reset interval ticks at its resets."""
        from repro.cpu.core import _FAR
        from repro.sim.system import make_provider_factory
        from tests.test_core import CoreHarness
        from tests.conftest import make_compute_trace

        def subclasses(cls):
            for sub in cls.__subclasses__():
                yield sub
                yield from subclasses(sub)

        defined = [cls for cls in subclasses(CriticalityProvider)
                   if cls.__module__.startswith("repro.")]
        assert len(defined) >= 5
        for cls in defined:
            assert (cls.tick is CriticalityProvider.tick
                    or cls.next_tick_cycle
                    is not CriticalityProvider.next_tick_cycle), cls
        specs = [(None, _FAR), (("cbp", {}), _FAR), (("clpt", {}), _FAR),
                 (("naive", {}), _FAR), (("fields", {}), _FAR),
                 (("cbp", {"reset_interval": 500}), 500)]
        for spec, due in specs:
            provider = make_provider_factory(spec)(0)
            harness = CoreHarness(make_compute_trace(20), provider=provider)
            assert harness.core._tick_at == due, spec
