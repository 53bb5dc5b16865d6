"""Engine: content-hashed cache keys, disk cache, parallel fan-out."""

from __future__ import annotations

import hashlib
import os
import pickle
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.config import DramConfig, SimScale, SystemConfig
from repro.sim import engine
from repro.sim.engine import (
    RunSpec,
    UnportableSpec,
    run_many,
    run_one_cached,
    spec_key,
)
from repro.sim.runner import trace_set
from repro.sim.stats import result_fingerprint
from repro.workloads import synthetic
from repro.workloads.scenario import scenario_traces

SCALE = SimScale(instructions_per_core=600, warmup_instructions=0, seed=5)


@pytest.fixture
def cache_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    return tmp_path


def _spec(**over):
    base = dict(kind="parallel", workload="fft", scale=SCALE)
    base.update(over)
    return RunSpec(**base)


class TestSpecKey:
    def test_stable(self):
        assert spec_key(_spec()) == spec_key(_spec())

    @pytest.mark.parametrize(
        "change",
        [
            {"workload": "radix"},
            {"scheduler": "par-bs"},
            {"provider_spec": ("cbp", {"entries": 64})},
            {"scheduler_kwargs": {"batch_cap": 3}},
            {"scale": SimScale(instructions_per_core=601,
                               warmup_instructions=0, seed=5)},
            {"scale": SimScale(instructions_per_core=600,
                               warmup_instructions=0, seed=6)},
            {"kind": "bundle"},
            {"slot": 1},
        ],
        ids=lambda c: next(iter(c)),
    )
    def test_any_field_invalidates(self, change):
        assert spec_key(_spec(**change)) != spec_key(_spec())

    def test_kwarg_order_is_canonical(self):
        a = _spec(provider_spec=("cbp", {"entries": 64, "reset_interval": 9}))
        b = _spec(provider_spec=("cbp", {"reset_interval": 9, "entries": 64}))
        assert spec_key(a) == spec_key(b)

    def test_enum_kwargs_hash(self):
        from repro.core.cbp import CbpMetric

        spec = _spec(
            provider_spec=("cbp", {"entries": 64, "metric": CbpMetric.BINARY})
        )
        assert spec_key(spec) != spec_key(
            _spec(provider_spec=("cbp", {"entries": 64,
                                         "metric": CbpMetric.MAX_STALL}))
        )

    def test_code_version_invalidates(self, monkeypatch):
        before = spec_key(_spec())
        monkeypatch.setenv("REPRO_CODE_VERSION", "deadbeef")
        assert spec_key(_spec()) != before

    def test_callable_provider_is_unportable(self):
        with pytest.raises(UnportableSpec):
            spec_key(_spec(provider_spec=lambda core: None))


def _rglob_digest(root: Path) -> str:
    """The code version as first written (sorted ``rglob`` paths), over
    the Python and the C sources."""
    digest = hashlib.sha256()
    for path in sorted([*root.rglob("*.py"), *root.rglob("*.c")]):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


class TestCodeVersion:
    ROOT = Path(engine.__file__).resolve().parent.parent

    def test_matches_the_rglob_digest(self, monkeypatch):
        monkeypatch.delenv("REPRO_CODE_VERSION", raising=False)
        monkeypatch.setattr(engine, "_CODE_VERSION_CACHE", {})
        assert engine.code_version() == _rglob_digest(self.ROOT)

    def test_files_sort_by_path_components(self, tmp_path):
        # By components "x/y.py" precedes "x-y.py"; as strings it follows.
        for name in ("x.py", "x-y.py", "x/y.py", "x/z/a.py", "x0.py",
                     ".h/b.py", "notes.txt", "x/k.c", "x-k.c", "x/k.so"):
            (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
            (tmp_path / name).write_text(name)
        assert engine._source_digest(str(tmp_path)) == _rglob_digest(tmp_path)

    def test_one_changed_byte_changes_the_version(self, tmp_path):
        copy = tmp_path / "repro"
        shutil.copytree(self.ROOT, copy,
                        ignore=shutil.ignore_patterns("__pycache__"))
        before = engine._source_digest(str(copy))
        assert before == _rglob_digest(self.ROOT)
        target = copy / "cache" / "mshr.py"
        data = bytearray(target.read_bytes())
        data[len(data) // 2] ^= 1
        target.write_bytes(bytes(data))
        assert engine._source_digest(str(copy)) != before

    def test_one_changed_byte_of_the_kernel_source_changes_the_version(
        self, tmp_path
    ):
        # The compiled core stages are simulator source too: a cache key
        # blind to them would replay results of the old kernel.
        copy = tmp_path / "repro"
        shutil.copytree(self.ROOT, copy,
                        ignore=shutil.ignore_patterns("__pycache__"))
        before = engine._source_digest(str(copy))
        target = copy / "cpu" / "_kernel.c"
        data = bytearray(target.read_bytes())
        data[len(data) // 2] ^= 1
        target.write_bytes(bytes(data))
        assert engine._source_digest(str(copy)) != before


class TestDiskCache:
    def test_round_trip(self, cache_dir):
        first = run_one_cached(_spec())
        assert list(cache_dir.glob("*.pkl"))
        engine.clear_metrics()
        second = run_one_cached(_spec())
        assert engine.last_metrics[-1]["source"] == "disk"
        assert result_fingerprint(first) == result_fingerprint(second)

    def test_no_cache_env(self, cache_dir, monkeypatch):
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        run_one_cached(_spec())
        assert not list(cache_dir.glob("*.pkl"))

    def test_corrupt_entry_is_a_miss(self, cache_dir):
        run_one_cached(_spec())
        (path,) = cache_dir.glob("*.pkl")
        path.write_bytes(b"not a pickle")
        engine.clear_metrics()
        result = run_one_cached(_spec())
        assert engine.last_metrics[-1]["source"] == "run"
        assert result.cycles > 0

    def test_cached_results_unpickle_cleanly(self, cache_dir):
        run_one_cached(_spec(provider_spec=("naive", {})))
        (path,) = cache_dir.glob("*.pkl")
        restored = pickle.loads(path.read_bytes())
        assert restored.cycles > 0

    def test_clear_disk_cache(self, cache_dir):
        run_one_cached(_spec())
        assert engine.clear_disk_cache() == 1
        assert not list(cache_dir.glob("*.pkl"))


class TestCappedRunsNotCached:
    """A run that hit the cycle cap is a failure: the caller gets the
    flagged result, and the next call simulates it again."""

    @pytest.fixture
    def tiny_cap(self, monkeypatch):
        from repro.sim import runner

        monkeypatch.setattr(runner, "_max_cycles", lambda scale: 100)

    def test_serial_path(self, cache_dir, tiny_cap):
        engine.clear_metrics()
        first = run_one_cached(_spec())
        second = run_one_cached(_spec())
        assert first.hit_max_cycles and second.hit_max_cycles
        assert [m["source"] for m in engine.last_metrics] == ["run", "run"]
        assert not list(cache_dir.glob("*.pkl"))

    def test_run_many(self, cache_dir, tiny_cap):
        engine.clear_metrics()
        run_many([_spec()], jobs=1)
        (again,) = run_many([_spec()], jobs=1)
        assert again.hit_max_cycles
        assert [m["source"] for m in engine.last_metrics] == ["run", "run"]
        assert not list(cache_dir.glob("*.pkl"))

    def test_no_speedup_from_capped_runs(self, cache_dir, tiny_cap):
        from repro.sim.runner import parallel_average_speedup

        with pytest.raises(ValueError, match="stopped at the cycle cap"):
            parallel_average_speedup(
                ["radix"], "casras-crit", ("cbp", {"entries": 64}),
                scale=SCALE,
            )


class TestRunMany:
    def test_results_align_and_dedup(self, cache_dir):
        specs = [_spec(), _spec(workload="radix"), _spec()]
        engine.clear_metrics()
        results = run_many(specs, jobs=2)
        assert [r.label for r in results] == [
            "fft/fr-fcfs", "radix/fr-fcfs", "fft/fr-fcfs"
        ]
        simulated = [m for m in engine.last_metrics if m["source"] == "run"]
        assert len(simulated) == 2  # the duplicate cost nothing

    def test_serial_path_matches_pool(self, cache_dir, monkeypatch):
        specs = [_spec(), _spec(workload="radix")]
        pooled = run_many(specs, jobs=2, cache=False)
        serial = run_many(specs, jobs=1, cache=False)
        for a, b in zip(pooled, serial):
            assert result_fingerprint(a) == result_fingerprint(b)

    def test_warm_pass_hits_disk(self, cache_dir):
        specs = [_spec(), _spec(workload="radix")]
        run_many(specs, jobs=2)
        engine.clear_metrics()
        run_many(specs, jobs=2)
        assert all(m["source"] == "disk" for m in engine.last_metrics)

    def test_unportable_spec_runs_inline(self, cache_dir):
        from repro.core.provider import NullProvider

        specs = [_spec(provider_spec=lambda core: NullProvider())]
        results = run_many(specs, jobs=2)
        assert results[0].cycles > 0
        assert not list(cache_dir.glob("*.pkl"))

    def test_run_log(self, cache_dir, tmp_path, monkeypatch):
        import json

        log = tmp_path / "runs.jsonl"
        monkeypatch.setenv("REPRO_RUN_LOG", str(log))
        run_many([_spec()], jobs=1, cache=False)
        lines = [json.loads(l) for l in log.read_text().splitlines()]
        assert lines and lines[0]["source"] == "run"
        assert lines[0]["wall_s"] > 0


#: The mechanism experiment's machine: two cores, one channel.
TWO_CORES = SystemConfig(cores=2, dram=DramConfig(channels=1))


class TestRunKinds:
    """The runner's one branch on ``RunSpec.kind``."""

    def test_scenario_runs_its_roles(self, cache_dir):
        spec = _spec(kind="scenario", workload="LS", config=TWO_CORES)
        assert trace_set(spec) == ("scenario", "LS", 600)
        (result,) = run_many([spec], jobs=1)
        assert result.label == "LS/fr-fcfs"
        assert not result.hit_max_cycles
        assert list(result.committed) == [
            len(trace) for trace in scenario_traces("LS", 600)
        ]

    def test_scenario_defaults_to_the_parallel_machine(self, cache_dir):
        spec = _spec(kind="scenario", workload="LLLLSSSS")
        (result,) = run_many([spec], jobs=1)
        assert len(result.finish_cycles) == 8
        assert not result.hit_max_cycles

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize(
        "over, message",
        [
            ({"kind": "bogus"}, "unknown run kind 'bogus'"),
            ({"kind": "alone", "workload": "RFGI"}, "requires slot"),
            ({"kind": "scenario", "workload": "LX", "config": TWO_CORES},
             "scenario 'LX' must name one role of LS for each of its 2 "),
            ({"kind": "scenario", "workload": "LSS", "config": TWO_CORES},
             "scenario 'LSS' must name one role of LS for each of its 2 "),
            ({"kind": "scenario", "workload": "LS"},
             "scenario 'LS' must name one role of LS for each of its 8 "),
        ],
        ids=["kind", "slot", "role", "too-many-roles", "too-few-roles"],
    )
    def test_unrunnable_spec_raises_before_any_run(
        self, cache_dir, monkeypatch, over, message, jobs
    ):
        spec = _spec(**over)
        with pytest.raises(ValueError, match=message):
            engine.run_one(spec)

        def no_run(spec):
            raise AssertionError(f"{spec.workload} simulated")

        # Raised in a pool worker, this would reach the caller too.
        monkeypatch.setattr(engine, "run_one", no_run)
        with pytest.raises(ValueError, match=message):
            run_many([_spec(), _spec(workload="radix"), spec], jobs=jobs)


@pytest.fixture
def memo(monkeypatch):
    """An empty trace memo that records the key of every trace it stores."""

    class Recording(type(synthetic._TRACE_CACHE)):
        def __setitem__(self, key, value):
            self.stored.append(key)
            super().__setitem__(key, value)

    recording = Recording()
    recording.stored = []
    monkeypatch.setattr(synthetic, "_TRACE_CACHE", recording)
    return recording


def _sets_held(memo) -> set:
    """(app, length, threads, seed) of every trace set in the memo."""
    return {(key[0].name, key[1], key[3], key[4]) for key in memo}


#: Trace sets A (fft) and B (radix), interleaved as an experiment lists
#: its baselines before its configurations.
A_BASE, B_BASE = _spec(), _spec(workload="radix")
A_CONF = _spec(scheduler="par-bs")
B_CONF = _spec(workload="radix", scheduler="par-bs")
SET_A, SET_B = ("fft", 600, 8, 5), ("radix", 600, 8, 5)


class TestTraceSets:
    """run_many runs set by set and holds one trace set per process, but
    reports in spec order."""

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_results_and_metrics_in_spec_order(self, cache_dir, tmp_path,
                                               monkeypatch, jobs):
        import json

        cached = _spec(scheduler="tcm")
        run_many([cached], jobs=1)
        log = tmp_path / "runs.jsonl"
        monkeypatch.setenv("REPRO_RUN_LOG", str(log))
        engine.clear_metrics()
        results = run_many(
            [A_BASE, B_BASE, A_CONF, B_CONF, A_BASE, cached], jobs=jobs
        )
        assert [r.label for r in results] == [
            "fft/fr-fcfs", "radix/fr-fcfs", "fft/par-bs", "radix/par-bs",
            "fft/fr-fcfs", "fft/tcm",
        ]
        assert results[4] is results[0]
        records = [(m["label"], m["source"]) for m in engine.last_metrics]
        assert records == [
            ("fft/fr-fcfs", "run"), ("radix/fr-fcfs", "run"),
            ("fft/par-bs", "run"), ("radix/par-bs", "run"),
            ("fft/tcm", "disk"),
        ]
        logged = [json.loads(line) for line in log.read_text().splitlines()]
        assert [(m["label"], m["source"]) for m in logged] == records

    def test_serial_batch_holds_one_set(self, cache_dir, memo, monkeypatch):
        held = []
        run_one = engine.run_one

        def observed(spec):
            result = run_one(spec)
            held.append((result.label, _sets_held(memo)))
            return result

        monkeypatch.setattr(engine, "run_one", observed)
        run_many([A_BASE, B_BASE, A_CONF, B_CONF], jobs=1)
        assert held == [
            ("fft/fr-fcfs", {SET_A}), ("fft/par-bs", {SET_A}),
            ("radix/fr-fcfs", {SET_B}), ("radix/par-bs", {SET_B}),
        ]
        assert len(memo.stored) == len(set(memo.stored)) == 2 * 8

    def test_worker_holds_one_set(self, memo):
        """A forked worker starts with what its parent memoised; its first
        task drops that, and each set is generated once."""
        from repro.workloads.parallel import parallel_traces

        parallel_traces("mg", 8, 600, seed=5)
        tasks = [A_BASE, A_CONF, B_BASE, B_CONF]
        for index, spec in enumerate(tasks):
            assert engine._pool_entry((index, spec))[0] == index
            assert _sets_held(memo) == {SET_A if index < 2 else SET_B}
        assert len(memo.stored) == len(set(memo.stored)) == 3 * 8

    def test_alone_runs_share_their_bundle_set(self, cache_dir, memo):
        specs = [_spec(kind="bundle", workload="RFGI", scheduler="par-bs")]
        specs += [
            _spec(kind="alone", workload="RFGI", scheduler="par-bs", slot=s)
            for s in range(2)
        ]
        run_many(specs, jobs=1)
        assert len(memo.stored) == len(set(memo.stored)) == 4


class TestCachedRunIntegration:
    def test_cached_run_uses_disk_across_memo_clears(self, cache_dir,
                                                     monkeypatch):
        from repro.experiments import common

        monkeypatch.setenv("REPRO_INSTRUCTIONS", "600")
        common.clear_run_cache()
        first = common.cached_run("parallel", "fft")
        assert len(common._RUN_CACHE) == 1
        common.clear_run_cache()
        engine.clear_metrics()
        second = common.cached_run("parallel", "fft")
        assert engine.last_metrics[-1]["source"] == "disk"
        assert result_fingerprint(first) == result_fingerprint(second)
        common.clear_run_cache()


#: Runs one TCM spec and one Crit-CASRAS + CBP64 spec and writes each
#: spec's pickle and its result's pickle (host wall time zeroed) to argv[1].
_HASHSEED_CHILD = textwrap.dedent("""
    import dataclasses
    import pickle
    import sys
    from pathlib import Path

    from repro.config import SimScale
    from repro.sim import engine
    from repro.sim.engine import RunSpec

    out = Path(sys.argv[1])
    scale = SimScale(instructions_per_core=600, warmup_instructions=0, seed=5)
    specs = [
        RunSpec(kind="parallel", workload="fft", scheduler="tcm", scale=scale),
        RunSpec(kind="parallel", workload="fft", scheduler="casras-crit",
                provider_spec=("cbp", {"entries": 64}), scale=scale),
    ]
    for i, spec in enumerate(specs):
        result = dataclasses.replace(engine.run_one(spec), wall_seconds=0.0)
        (out / f"spec{i}.pkl").write_bytes(pickle.dumps(spec))
        (out / f"result{i}.pkl").write_bytes(engine._pickle_result(result))
""")


class TestHashSeedIndependence:
    def test_pickles_are_identical_across_hash_seeds(self, tmp_path):
        """What crosses the worker boundary pickles to the same bytes
        whatever PYTHONHASHSEED is, so no set order leaks into a spec
        or a result; host wall time is the only field that may differ."""
        src = str(Path(__file__).resolve().parents[1] / "src")
        pythonpath = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p
        )
        outputs = []
        for seed in ("0", "1"):
            out = tmp_path / seed
            out.mkdir()
            env = dict(os.environ, PYTHONHASHSEED=seed, REPRO_NO_CACHE="1",
                       PYTHONPATH=pythonpath)
            subprocess.run([sys.executable, "-c", _HASHSEED_CHILD, str(out)],
                           env=env, check=True)
            outputs.append({p.name: p.read_bytes() for p in out.iterdir()})
        assert sorted(outputs[0]) == [
            "result0.pkl", "result1.pkl", "spec0.pkl", "spec1.pkl"
        ]
        assert outputs[0] == outputs[1]
