"""Runtime verification of purity certificates (REPRO_VERIFY_EFFECTS).

Three layers: an instrumented run of the real simulator stays clean
(the certificates hold at runtime, not just statically); an injected
mutation in a certified hook raises :class:`EffectViolation` at the
call; and the instrumented run remains bit-identical to the bare run.
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
        bare = make_system().run(max_cycles=400_000)
        system = make_system()
        wrapped = instrument_system(system)
        assert wrapped >= 7  # 2 channels x 3 + 2 cores + hierarchy
        checked = system.run(max_cycles=400_000)
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
        # The default (batched) engine reads each channel's wake through
        # next_wake_window after every step; next_wake is only its
        # fallback during write drains and refreshes.
        system = make_system()
        channel = system.memory.channels[0]
        real = channel.next_wake_window

        def poisoned(dram_now):
            channel._seq += 1  # the undeclared mutation SEM030 also flags
            return real(dram_now)

        channel.next_wake_window = poisoned
        instrument_system(system)
        with pytest.raises(EffectViolation) as err:
            system.run(max_cycles=400_000)
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
