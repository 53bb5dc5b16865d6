"""Determinism hash-chain: skip and naive loops must chain identically.

Unit tests for the rolling FNV digest and divergence search, then the
load-bearing regression: the chain recorded by a fast-forwarded run is
bit-identical to the cycle-by-cycle run's — so a future skip-path bug
that leaves architectural state subtly different is pinned to the first
diverging sample window instead of surfacing as a mystery stat diff.
"""

from __future__ import annotations

import pytest

from repro.analysis import detchain
from repro.analysis.detchain import (
    _CHECKPOINT_CAP,
    DetChain,
    first_divergence,
    interval,
)
from repro.config import SimScale, SystemConfig
from repro.sim.system import System
from repro.workloads.parallel import parallel_traces

SCALE = SimScale(instructions_per_core=800, warmup_instructions=0, seed=11)


def make_system(app="fft", seed=None, scheduler="fr-fcfs"):
    config = SystemConfig.parallel_default()
    traces = parallel_traces(
        app, config.cores, SCALE.instructions_per_core,
        seed=SCALE.seed if seed is None else seed,
    )
    return System(config, traces, scheduler=scheduler)


class TestDetChain:
    def test_same_samples_same_digest(self):
        a, b = DetChain(16), DetChain(16)
        for cycle in range(16, 160, 16):
            a.sample(cycle, (1, 2, cycle))
            b.sample(cycle, (1, 2, cycle))
        assert a.digest == b.digest
        assert a.checkpoints == b.checkpoints

    def test_any_word_changes_digest(self):
        a, b = DetChain(16), DetChain(16)
        a.sample(16, (1, 2, 3))
        b.sample(16, (1, 2, 4))
        assert a.digest != b.digest

    def test_order_sensitive(self):
        a, b = DetChain(16), DetChain(16)
        a.sample(16, (1, 2))
        b.sample(16, (2, 1))
        assert a.digest != b.digest

    def test_negative_and_large_words_fold(self):
        chain = DetChain(16)
        chain.sample(16, (-1, 1 << 80, 0))
        assert 0 < chain.digest < 1 << 64

    def test_inlined_sample_matches_per_word_fold(self, monkeypatch):
        """The hot-path sample (inlined fold, each word's high zero bytes
        folded by one multiply) must stay bit-identical to the per-word
        _fold reference, on edge-case words (inner zero bytes included)
        and on snapshots recorded from a real 8-core run."""
        recorded = []
        real_snapshot = detchain.snapshot

        def record(system):
            recorded.append(real_snapshot(system))
            return recorded[-1]

        monkeypatch.setattr(detchain, "snapshot", record)
        make_system().run()
        assert len(recorded) >= 2 and len(recorded[0]) > 1000
        words = (0, 1, -1, 255, 256, 1 << 63, (1 << 64) - 1, 1 << 80, -42,
                 0x100, 1 << 56, 0x01_0000_0001)
        a, b = DetChain(16), DetChain(16)
        for k, state in enumerate([words] * 5 + recorded):
            a.sample(16 * (k + 1), state)
            b.fold_words(16 * (k + 1), state)
        assert a.digest == b.digest
        assert a.checkpoints == b.checkpoints
        assert a.samples == b.samples

    def test_checkpoints_stay_bounded(self):
        chain = DetChain(1)
        for cycle in range(3 * _CHECKPOINT_CAP):
            chain.sample(cycle, (cycle,))
        assert len(chain.checkpoints) <= _CHECKPOINT_CAP
        cycles = [c for c, _ in chain.checkpoints]
        assert cycles == sorted(cycles)

    def test_finalize_always_appends(self):
        chain = DetChain(16)
        chain.finalize(99, (5,))
        assert chain.checkpoints[-1][0] == 99

    def test_rejects_nonpositive_interval(self):
        with pytest.raises(ValueError):
            DetChain(0)


class TestFirstDivergence:
    def test_identical_chains(self):
        chain = [(16, 10), (32, 20)]
        assert first_divergence(chain, list(chain)) is None

    def test_digest_divergence(self):
        a = [(16, 10), (32, 20), (48, 30)]
        b = [(16, 10), (32, 21), (48, 31)]
        where = first_divergence(a, b)
        assert where["cycle"] == 32 and where["kind"] == "digest"

    def test_sample_cycle_divergence(self):
        where = first_divergence([(16, 10)], [(18, 10)])
        assert where["kind"] == "sample-cycle" and where["cycle"] == 16

    def test_length_divergence(self):
        where = first_divergence([(16, 10)], [(16, 10), (32, 20)])
        assert where["kind"] == "length" and where["cycle"] == 32

    def test_empty_chains_agree(self):
        assert first_divergence([], [(16, 10)]) is None


class TestInterval:
    def test_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_DETCHAIN_EVERY", raising=False)
        assert interval() == 1024

    def test_override_and_disable(self, monkeypatch):
        monkeypatch.setenv("REPRO_DETCHAIN_EVERY", "256")
        assert interval() == 256
        monkeypatch.setenv("REPRO_DETCHAIN_EVERY", "0")
        assert interval() == 0

    def test_rejects_garbage(self, monkeypatch):
        monkeypatch.setenv("REPRO_DETCHAIN_EVERY", "soon")
        with pytest.raises(ValueError):
            interval()

    def test_disabled_runs_record_no_chain(self, monkeypatch):
        monkeypatch.setenv("REPRO_DETCHAIN_EVERY", "0")
        result = make_system().run()
        assert result.det_chain is None
        assert result.det_checkpoints == []


class TestSkipIdentity:
    """The tentpole contract: chains are skip-mode and process invariant."""

    @pytest.mark.parametrize("case", [
        {},
        {"app": "radix", "scheduler": "par-bs"},
        {"app": "ocean", "scheduler": "tcm"},
    ], ids=lambda c: c.get("app", "fft") + "/" + c.get("scheduler", "fr-fcfs"))
    def test_skip_equals_naive(self, case, monkeypatch):
        monkeypatch.setenv("REPRO_DETCHAIN_EVERY", "256")
        naive = make_system(**case).run(engine="naive")
        fast = make_system(**case).run(engine="batched")
        assert naive.det_chain == fast.det_chain
        assert naive.det_checkpoints == fast.det_checkpoints
        assert naive.det_chain is not None

    def test_different_seeds_diverge(self, monkeypatch):
        monkeypatch.setenv("REPRO_DETCHAIN_EVERY", "256")
        a = make_system(seed=11).run()
        b = make_system(seed=12).run()
        assert a.det_chain != b.det_chain
        where = first_divergence(a.det_checkpoints, b.det_checkpoints)
        assert where is not None

    def test_different_schedulers_diverge(self, monkeypatch):
        monkeypatch.setenv("REPRO_DETCHAIN_EVERY", "256")
        a = make_system(scheduler="fr-fcfs").run()
        b = make_system(scheduler="par-bs").run()
        assert a.det_chain != b.det_chain

    def test_chain_in_fingerprint(self):
        from repro.sim.stats import result_fingerprint

        result = make_system().run()
        assert result.det_chain in result_fingerprint(result)


class TestVerifyDeterminism:
    def test_inline_report_ok(self, monkeypatch):
        from repro.sim.engine import RunSpec, verify_determinism

        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        # The reference is the batched engine, so the naive loop is the
        # in-process comparison.
        spec = RunSpec(kind="parallel", workload="fft", scale=SCALE,
                       engine="batched")
        report = verify_determinism(spec, subprocess=False)
        assert report["ok"]
        assert report["chain"] is not None
        names = [entry["name"] for entry in report["runs"]]
        assert any("cycle-by-cycle" in name for name in names)
        assert all(entry["ok"] for entry in report["runs"])

    def test_subprocess_comparison(self, monkeypatch):
        from repro.sim.engine import RunSpec, verify_determinism

        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        spec = RunSpec(kind="parallel", workload="fft", scale=SCALE)
        report = verify_determinism(spec, subprocess=True)
        assert report["ok"]
        assert any("subprocess" in entry["name"] for entry in report["runs"])
