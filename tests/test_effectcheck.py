"""Runtime verification of purity certificates and of the scheduler
contract (REPRO_VERIFY_EFFECTS).

Four layers: an instrumented run of the real simulator stays clean
(the certificates hold at runtime, not just statically); an injected
mutation in a certified hook raises :class:`EffectViolation` at the
call; the instrumented run remains bit-identical to the bare run; and
a scheduler hook that touches its controller's state raises (every
registered scheduler runs clean under the bracket in
``test_batched_differential.py``).
"""

from __future__ import annotations

import pytest

from repro.analysis.effectcheck import (
    EffectViolation,
    enabled,
    instrument_system,
)
from repro.config import DramConfig, SystemConfig
from repro.cpu.instruction import INT, LOAD, Trace
from repro.sched.frfcfs import FrFcfsScheduler
from repro.sim.system import ENGINES, System


def small_traces(cores=2, n=400):
    traces = []
    for c in range(cores):
        t = Trace(f"t{c}")
        addr = (c + 1) << 30
        for i in range(n):
            if i % 5 == 0:
                t.append(LOAD, 10 + (i % 5), addr, 0)
                addr += 4096 + 64
            else:
                t.append(INT, 100 + (i % 9), 0, 1)
        traces.append(t)
    return traces


def make_system(**kwargs):
    cfg = SystemConfig(cores=2, dram=DramConfig(channels=2))
    return System(cfg, small_traces(), **kwargs)


class TestEnvKnob:
    def test_disabled_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_VERIFY_EFFECTS", raising=False)
        assert not enabled()
        monkeypatch.setenv("REPRO_VERIFY_EFFECTS", "0")
        assert not enabled()

    def test_enabled(self, monkeypatch):
        monkeypatch.setenv("REPRO_VERIFY_EFFECTS", "1")
        assert enabled()

    def test_system_instruments_itself_under_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_VERIFY_EFFECTS", "1")
        system = make_system()
        assert any(
            hasattr(ch.next_wake, "__wrapped_for_effects__")
            for ch in system.memory.channels
        )


class TestCertificatesHoldAtRuntime:
    def test_instrumented_run_is_clean_and_bit_identical(self):
        # The batched engine is the one that calls the certified hooks.
        bare = make_system().run(max_cycles=400_000, engine="batched")
        system = make_system()
        wrapped = instrument_system(system)
        assert wrapped >= 7  # 2 channels x 3 + 2 cores + hierarchy
        checked = system.run(max_cycles=400_000, engine="batched")
        assert not checked.hit_max_cycles
        assert checked.cycles == bare.cycles
        assert checked.finish_cycles == bare.finish_cycles

    def test_every_engine_stays_clean(self):
        for engine in ENGINES:
            system = make_system()
            instrument_system(system, every=3)
            result = system.run(max_cycles=400_000, engine=engine)
            assert not result.hit_max_cycles, engine


class TestInjectedViolation:
    def test_mutating_next_wake_is_caught(self):
        # The batched engine reads each channel's wake through
        # next_wake_window after every step; next_wake is only its
        # fallback during write drains and refreshes.  The naive engine,
        # the default, never calls it, so the run pins the batched one.
        system = make_system()
        channel = system.memory.channels[0]
        real = channel.next_wake_window

        def poisoned(dram_now):
            channel._seq += 1  # the undeclared mutation SEM030 also flags
            return real(dram_now)

        channel.next_wake_window = poisoned
        instrument_system(system)
        with pytest.raises(EffectViolation) as err:
            system.run(max_cycles=400_000, engine="batched")
        assert "next_wake_window" in str(err.value)

    def test_sampling_still_catches_repeated_mutation(self):
        system = make_system()
        channel = system.memory.channels[0]
        real = channel.can_accept

        def poisoned(*args, **kwargs):
            channel._seq += 1
            return real(*args, **kwargs)

        channel.can_accept = poisoned
        instrument_system(system, every=4)
        with pytest.raises(EffectViolation):
            system.run(max_cycles=400_000)


class ReadThief(FrFcfsScheduler):
    """Seeded bug: ``select`` drops the newest queued read."""

    def select(self, candidates, controller, now):
        if len(controller.read_queue) > 1:
            controller.read_queue.pop()
        return super().select(candidates, controller, now)


class HastyActivator(FrFcfsScheduler):
    """Seeded bug: ``select`` clears a bank's ACTIVATE timer (tRC/tRP)."""

    def select(self, candidates, controller, now):
        for rank_banks in controller.banks:
            for bank in rank_banks:
                if bank.act_ready > now:
                    bank.act_ready = now
        return super().select(candidates, controller, now)


class TestSchedulerBracket:
    def _run_with(self, scheduler, **kwargs):
        system = make_system()
        system.memory.channels[0].scheduler = scheduler
        instrument_system(system)
        return system.run(max_cycles=400_000, **kwargs)

    def test_removing_a_queued_read_is_caught(self):
        with pytest.raises(EffectViolation) as err:
            self._run_with(ReadThief())
        assert "select() changed the queues of channel0" in str(err.value)

    def test_writing_a_banks_act_ready_is_caught(self):
        with pytest.raises(EffectViolation) as err:
            self._run_with(HastyActivator())
        assert "select() changed the banks of channel0" in str(err.value)
