"""The compiled kernels and their loader; the core's kernel
(``repro/cpu/_kernel.c``) held to its Python bodies.

``OutOfOrderCore.step``, ``_complete_at``, ``_do_load_issues``,
``_do_commit``, ``_do_dispatch``, ``_book_and_schedule`` and
``_take_bucket`` hand each call to the core's kernel when it is loaded;
the Python body after the guard is the reference.  This module pins the
loader for every kernel (where each is built, that loading one compiles
nothing, that a compile error selects the Python bodies, that a build
prunes the builds it supersedes) and holds the core's kernel to its
reference: cycle by cycle on one core, and end to end with every
telemetry stream on.  ``test_cache_kernel.py`` and
``test_dram_kernel.py`` do the same for the cache hierarchy's and the
DRAM controller's kernels, and ``test_golden_fingerprints.py`` pins every
kernel and each set of Python bodies against recorded values.

Compiled cases skip only where no C compiler exists; where one does, a
kernel that did not load fails them.
"""

from __future__ import annotations

import hashlib
import importlib.machinery
import os
import pickle
import random
import shlex
import shutil
import subprocess
import sysconfig
from pathlib import Path

import pytest

from repro.cache import hierarchy
from repro.config import SimScale, SystemConfig
from repro.core.provider import CbpProvider
from repro.cpu import core, native
from repro.cpu.instruction import BRANCH, FP, INT, LOAD, STORE, Trace
from repro.dram import controller
from repro.sim import events
from repro.sim.runner import (
    run_multiprogrammed_workload,
    run_parallel_workload,
)
from repro.sim.stats import _stat_items, result_fingerprint
from repro.sim.system import ENGINES
from tests.test_core import CoreHarness
from tests.test_golden_fingerprints import _Quiet

#: Each kernel and the module whose ``_kernel`` it is.
KERNELS = ((native.CPU, core), (native.CACHE, hierarchy),
           (native.EVENTS, events), (native.DRAM, controller))


def _compiler_found() -> bool:
    link = sysconfig.get_config_var("LDSHARED")
    return bool(link) and shutil.which(shlex.split(link)[0]) is not None


def loaded(spec, owner):
    """``owner._kernel``; skips without a compiler, fails without a
    kernel."""
    if owner._kernel is None:
        if not _compiler_found():
            pytest.skip("no C compiler: the Python bodies run")
        pytest.fail(f"a C compiler exists but {spec.module} did not load: "
                    f"{spec.failure}")
    return owner._kernel


@pytest.fixture
def kernel():
    """The core's loaded kernel."""
    return loaded(native.CPU, core)


@pytest.fixture
def kernels():
    """Every loaded kernel, as ``(spec, module)`` pairs."""
    return [(spec, loaded(spec, owner)) for spec, owner in KERNELS]


@pytest.fixture
def isolated_loader(monkeypatch, tmp_path):
    """Every kernel building into its own directory under
    ``tmp_path`` (never the packages' ``__pycache__``), with their
    failure notes restored afterwards."""
    for spec, _owner in KERNELS:
        monkeypatch.setattr(spec, "failure", spec.failure)
        monkeypatch.setattr(spec, "build_dir",
                            str(tmp_path / spec.module.split(".")[1]))
    return tmp_path


# ------------------------------------------------------------------ loading


class TestLoad:
    def test_built_file_is_named_by_source_digest_and_ext_suffix(self,
                                                                 kernels):
        suffix = importlib.machinery.EXTENSION_SUFFIXES[0]
        for spec, module in kernels:
            with open(spec.source, "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()[:16]
            path = Path(module.__file__)
            assert path.name == f"_kernel.{digest}{suffix}"
            assert path.parent == Path(spec.source).parent / "__pycache__"
            assert module.__name__ == spec.module
        assert [spec.module for spec, _ in kernels] == [
            "repro.cpu._kernel", "repro.cache._kernel", "repro.sim._kernel",
            "repro.dram._kernel"]

    def test_loading_a_built_kernel_runs_no_compiler(self, kernels,
                                                     monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("loading a built kernel started a process")

        monkeypatch.setattr(native, "_compile", forbidden)
        monkeypatch.setattr(subprocess, "run", forbidden)
        monkeypatch.setattr(subprocess, "Popen", forbidden)
        for spec, _module in kernels:
            monkeypatch.setattr(spec, "failure", spec.failure)
            assert spec.load() is not None
            assert spec.failure is None

    def test_compile_error_selects_the_python_bodies(self, kernels,
                                                     isolated_loader,
                                                     monkeypatch):
        broken = isolated_loader / "broken.c"
        broken.write_text("#error this kernel does not build\n")
        for spec, _module in kernels:
            monkeypatch.setattr(spec, "source", str(broken))
            assert spec.load() is None
            assert "compiler failed" in spec.failure
            assert "does not build" in spec.failure

    def test_build_publishes_through_atomicio(self, kernel, isolated_loader,
                                              monkeypatch):
        from repro.util import atomicio

        published = []
        original = atomicio.write_bytes

        def record(path, payload):
            published.append(str(path))
            original(path, payload)

        monkeypatch.setattr(atomicio, "write_bytes", record)
        target = str(isolated_loader / "built.so")
        assert native.CPU.build(target)
        assert published == [target]
        assert os.path.getsize(target) > 0
        assert sorted(p.name for p in isolated_loader.iterdir()) == [
            "built.so"]

    def test_build_prunes_superseded_builds_of_the_same_kernel(
        self, kernels, isolated_loader
    ):
        """A successful build deletes this kernel's builds of other
        sources for this interpreter, and nothing else: not the other
        kernel's, not other interpreters', not unrelated files."""
        suffix = importlib.machinery.EXTENSION_SUFFIXES[0]
        spec = native.CACHE
        directory = Path(spec.build_dir)
        directory.mkdir(parents=True)
        stale = [f"_kernel.{'0' * 16}{suffix}", f"_kernel.{'a1' * 8}{suffix}"]
        kept = [
            f"_kernel.{'0' * 16}.cpython-27-other.so",
            f"_kernel.{'0' * 15}{suffix}",
            f"_kernel.{'0' * 16}{suffix}.tmp",
            f"_other.{'0' * 16}{suffix}",
            "notes.txt",
        ]
        for name in stale + kept:
            (directory / name).write_bytes(b"old")
        other = Path(native.CPU.build_dir)
        other.mkdir(parents=True)
        (other / stale[0]).write_bytes(b"old")
        module = spec.load()
        assert module is not None, spec.failure
        built = Path(module.__file__).name
        assert sorted(p.name for p in directory.iterdir()) == sorted(
            kept + [built])
        assert [p.name for p in other.iterdir()] == [stale[0]]

    def test_a_failed_unlink_is_ignored(self, kernels, isolated_loader,
                                        monkeypatch):
        suffix = importlib.machinery.EXTENSION_SUFFIXES[0]
        spec = native.CACHE
        directory = Path(spec.build_dir)
        directory.mkdir(parents=True)
        stale = f"_kernel.{'0' * 16}{suffix}"
        (directory / stale).write_bytes(b"old")
        unlink = os.unlink

        def refuse_stale(path, *args, **kwargs):
            if os.fspath(path).endswith(stale):
                raise PermissionError(path)
            return unlink(path, *args, **kwargs)

        monkeypatch.setattr(os, "unlink", refuse_stale)
        assert spec.load() is not None, spec.failure
        assert spec.failure is None
        assert stale in [p.name for p in directory.iterdir()]

    def test_a_build_pruned_before_its_import_is_built_again(
        self, kernels, isolated_loader, monkeypatch
    ):
        """Another process's build may delete this process's file between
        the existence check and the import: the loader builds it again
        rather than fall back to the Python bodies."""
        spec = native.CACHE
        with open(spec.source, "rb") as fh:
            path = spec.built_path(fh.read())
        assert spec.build(path), spec.failure
        builds = []
        original_build = native.Kernel.build
        original_import = native._import

        def counting_build(self, target):
            builds.append(target)
            return original_build(self, target)

        def pruned_first(module, target):
            if not builds:
                os.unlink(target)  # pruned after the existence check
            return original_import(module, target)

        monkeypatch.setattr(native.Kernel, "build", counting_build)
        monkeypatch.setattr(native, "_import", pruned_first)
        assert spec.load() is not None, spec.failure
        assert spec.failure is None
        assert builds == [path]
        assert os.path.exists(path)


# --------------------------------------------------------- cycle by cycle


class _Recorder:
    """Tracer stand-in: records what the core reports, in order."""

    def __init__(self):
        self.records = []

    def block_episode(self, *args):
        self.records.append(("block", *args))

    def prediction(self, *args):
        self.records.append(("prediction", *args))


def _mixed_trace(n=3000, seed=5):
    """Loads, stores, branches (some mispredicted) and compute with short
    dependencies; a third of the accesses miss to DRAM, the rest stay in
    a 16 KiB region."""
    rng = random.Random(seed)
    trace = Trace("mixed")
    for i in range(n):
        kind = rng.random()
        dep1 = min(rng.randrange(0, 12), i) if rng.random() < 0.6 else 0
        dep2 = min(rng.randrange(0, 30), i) if rng.random() < 0.2 else 0
        span = (1 << 24) if rng.random() < 0.3 else (1 << 14)
        if kind < 0.3:
            trace.append(LOAD, 16 + i % 24, rng.randrange(span) & ~7,
                         dep1, dep2)
        elif kind < 0.45:
            trace.append(STORE, 64 + i % 8, rng.randrange(span) & ~7,
                         dep1, dep2)
        elif kind < 0.55:
            trace.append(BRANCH, 96 + i % 8, 0, dep1, 0,
                         misp=rng.random() < 0.1)
        else:
            trace.append(INT if kind < 0.8 else FP, 128 + i % 32, 0, dep1,
                         dep2)
    return trace


def rings(core, now):
    """The core's cycle rings as of cycle ``now``: per schedule, each
    cycle's bucket in order, and per itype each cycle's booked units,
    over the cycles ``[now, now + ring size)`` the rings serve; then every
    ring buffer as it stands, stale slots included."""
    mask = core._ring_mask
    cycles = range(now, now + mask + 1)
    link, cap = core._link, core._rob_entries

    def bucket(head, cycle):
        entries, i = [], head[cycle & mask]
        while i >= 0:
            entries.append(i)
            i = link[i % cap]
        return entries

    schedules = [
        [(cycle, bucket(head, cycle)) for cycle in cycles
         if head[cycle & mask] >= 0]
        for head in (core._wake_head, core._issue_head)
    ]
    booked = [
        [(cycle, counts[cycle & mask]) for cycle in cycles
         if tags[cycle & mask] == cycle]
        for tags, counts in zip(core._fu_tag, core._fu_count)
    ]
    buffers = [list(ring) for ring in (
        *core._fu_tag, *core._fu_count, core._wake_head, core._wake_tail,
        core._issue_head, core._issue_tail, link)]
    return schedules, booked, buffers


class _Machine(CoreHarness):
    """One core with a CBP-64 provider (or ``provider``) and a recording
    tracer on its own single-core memory system."""

    def __init__(self, trace, config, provider=None):
        super().__init__(trace, config, provider or CbpProvider(entries=64))
        self.core.tracer = _Recorder()

    def state(self):
        c = self.core
        return (
            c.det_state(),
            {name: getattr(c.stats, name) for name in c.stats.FIELDS},
            list(c._done), list(c._pending),
            [None if w is None else list(w) for w in c._waiters],
            list(c._consumers), list(c._bstart),
            [h is None for h in c._handle],
            rings(c, self.now), c._next_local, c._tick_at, c.skip_until,
            list(c.tracer.records),
        )


def test_stages_match_the_python_bodies_cycle_by_cycle(kernel, monkeypatch):
    """Lockstep: after every cycle, every column, schedule bucket (in
    order), FU booking, ring buffer, scalar, statistic and tracer record
    of the kernel's core equals the Python bodies' core.  The trace
    reaches every stall the stages count, and wraps the rings many
    times."""
    config = SystemConfig(cores=1)
    trace = _mixed_trace()
    compiled, python = _Machine(trace, config), _Machine(trace, config)
    cycles = 0
    while not (compiled.core.done and python.core.done):
        compiled.step()
        monkeypatch.setattr(core, "_kernel", None)
        python.step()
        monkeypatch.setattr(core, "_kernel", kernel)
        assert compiled.state() == python.state(), f"cycle {cycles}"
        cycles += 1
        assert cycles < 200_000, "run did not finish"
    stats = python.core.stats
    assert stats.committed == len(trace)
    assert cycles > 8 * (python.core._ring_mask + 1)
    for counter in ("lq_full_cycles", "sq_full_cycles", "rob_full_cycles",
                    "dispatch_stall_cycles", "blocking_dram_loads",
                    "critical_loads_sent"):
        assert getattr(stats, counter), counter
    assert python.core.tracer.records


def test_stages_called_through_their_guards_match(kernel, monkeypatch):
    """``step`` runs the kernel's completion and load-issue stages
    directly; called through their guards, ``_complete_at`` and
    ``_do_load_issues`` leave the state their Python bodies leave."""
    trace = _mixed_trace(400)
    states = []
    for use_kernel in (True, False):
        monkeypatch.setattr(core, "_kernel", kernel if use_kernel else None)
        machine = _Machine(trace, SystemConfig(cores=1))
        for _ in range(60):
            machine.step()
        c = machine.core
        cap = c._rob_entries
        rob = range(c._ptr - c._rob_len, c._ptr)
        producers = [i for i in rob if c._waiters[i % cap]][:3]
        loads = [i for i in rob if trace.itypes[i] == LOAD
                 and not c._done[i % cap]][:2]
        assert producers and loads
        c._complete_at(producers, machine.now)
        c._do_load_issues(loads, machine.now)
        states.append(machine.state())
    assert states[0] == states[1]


def test_call_out_exceptions_propagate_unchanged(kernel, monkeypatch):
    """A provider hook that raises surfaces from ``step`` as itself, and
    leaves the same core state on both paths.  The CBP resets every 40
    cycles, so its tick is due at the raising cycle."""

    class Boom(Exception):
        pass

    config = SystemConfig(cores=1)
    trace = _mixed_trace(400)
    states = []
    for use_kernel in (True, False):
        monkeypatch.setattr(core, "_kernel", kernel if use_kernel else None)
        machine = _Machine(trace, config,
                           CbpProvider(entries=64, reset_interval=40))
        for _ in range(40):
            machine.step()

        def tick(cycle):
            raise Boom(cycle)

        machine.core.provider.tick = tick
        with pytest.raises(Boom) as raised:
            machine.step()
        assert raised.value.args == (40,)
        states.append(machine.state())
    assert states[0] == states[1]


def test_internal_error_leaves_the_state_the_python_bodies_leave(
    kernel, monkeypatch
):
    """Dispatch overflows two-slot cycle rings at the INT after a load:
    the load's LQ entry, FU booking and load issue are taken (the Python
    body writes them at once), the dispatch pointer is not (written after
    the loop), and the INT's booking and completion are not written at
    all, on both paths."""
    trace = Trace("two")
    trace.append(LOAD, 1, 1 << 20)
    trace.append(INT, 2)
    monkeypatch.setattr(core, "ring_size", lambda config: 2)
    states = []
    for use_kernel in (True, False):
        monkeypatch.setattr(core, "_kernel", kernel if use_kernel else None)
        machine = _Machine(trace, SystemConfig(cores=1))
        with pytest.raises(RuntimeError, match="cycle 2 is beyond its "
                                               "2-slot cycle rings"):
            machine.step()
        states.append(machine.state())
    assert states[0] == states[1]
    det_state = states[0][0]
    schedules, booked, _buffers = states[0][8]
    assert det_state[5] == 1  # _lq_used
    assert det_state[2] == 0  # _ptr
    assert schedules == [[], [(1, [0])]]
    assert booked == [[], [], [], [(1, 1)], []]


def test_the_kernel_refuses_a_core_not_built_on_core_base(kernel):
    """Every entry point takes only a core whose scalars are CoreBase
    fields, and a core's stats must be StatsBase fields."""

    class Duck:
        pass

    calls = {
        "step": lambda c: kernel.step(c, 0),
        "complete_at": lambda c: kernel.complete_at(c, (), 0),
        "load_issues": lambda c: kernel.load_issues(c, (), 0),
        "commit": lambda c: kernel.commit(c, 0),
        "dispatch": lambda c: kernel.dispatch(c, 0),
        "book_and_schedule": lambda c: kernel.book_and_schedule(c, 0, 1, 0),
        "take_bucket": lambda c: kernel.take_bucket(c, None, 0),
    }
    for name, call in calls.items():
        with pytest.raises(TypeError, match="CoreBase"):
            call(Duck())
    machine = _Machine(_mixed_trace(50), SystemConfig(cores=1))
    machine.core.stats = Duck()
    with pytest.raises(TypeError, match="StatsBase"):
        kernel.step(machine.core, 0)


def test_core_stats_pickle_into_the_readers_class(kernel, monkeypatch):
    """A pickled CoreStats is read into the CoreStats of the reading
    process, compiled or Python, with every counter kept."""

    class PythonCoreStats(core._Counters):
        __slots__ = ()
        FIELDS = core.CoreStats.FIELDS
        __reduce__ = core.CoreStats.__reduce__

    compiled = core.CoreStats()
    for k, name in enumerate(compiled.FIELDS):
        setattr(compiled, name, 7 * k + 1)
    written = pickle.dumps(compiled)
    monkeypatch.setattr(core, "CoreStats", PythonCoreStats)
    read = pickle.loads(written)
    assert type(read) is PythonCoreStats
    assert _stat_items(read) == _stat_items(compiled)
    written = pickle.dumps(read)
    monkeypatch.undo()
    back = pickle.loads(written)
    assert type(back) is core.CoreStats
    assert _stat_items(back) == _stat_items(compiled)


# ------------------------------------------------------------- end to end

SCALE = SimScale(instructions_per_core=800, warmup_instructions=100, seed=3)
CBP64 = ("cbp", {"entries": 64})

RUNS = {
    "fft/FR-FCFS": lambda: run_parallel_workload("fft", "fr-fcfs",
                                                 scale=SCALE),
    "art/CASRAS-Crit+CBP64": lambda: run_parallel_workload(
        "art", "casras-crit", CBP64, scale=SCALE),
    "swim/Crit-CASRAS+CLPT": lambda: run_parallel_workload(
        "swim", "crit-casras", ("clpt", {"ranked": True}), scale=SCALE),
    "mg/CASRAS-Crit+naive": lambda: run_parallel_workload(
        "mg", "casras-crit", ("naive", {}), scale=SCALE),
    "RFGI/Crit-RL+CBP64": lambda: run_multiprogrammed_workload(
        "RFGI", "crit-rl", CBP64, scale=SCALE),
}


def _stream_digest(directory: Path) -> dict[str, str]:
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(directory.glob("*.jsonl"))
    }


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("name", sorted(RUNS))
def test_compiled_core_matches_python_bodies(kernel, name, engine, tmp_path,
                                             monkeypatch):
    """Same result fingerprint, det-chain checkpoints, sampled series,
    event trace and streamed segment bytes with every telemetry stream
    on."""
    monkeypatch.setenv("REPRO_ENGINE", engine)
    monkeypatch.setenv("REPRO_TRACE", "1")
    monkeypatch.setenv("REPRO_SAMPLE_EVERY", "64")
    monkeypatch.setenv("REPRO_DETCHAIN_EVERY", "128")
    observed = []
    for use_kernel in (True, False):
        monkeypatch.setattr(core, "_kernel", kernel if use_kernel else None)
        stream = tmp_path / ("compiled" if use_kernel else "python")
        monkeypatch.setenv("REPRO_STREAM_DIR", str(stream))
        result = RUNS[name]()
        assert not result.hit_max_cycles
        observed.append((
            result_fingerprint(result), result.det_chain,
            result.det_checkpoints, result.sample_cycles, result.timeseries,
            result.trace_events, _stream_digest(stream),
        ))
    assert observed[0] == observed[1]


class _CountingCbp(CbpProvider):
    """CBP-64 with a reset interval, logging the cycles it ticks at."""

    def __init__(self, ticks, **kwargs):
        super().__init__(**kwargs)
        self.ticks = ticks

    def tick(self, cycle):
        self.ticks.append(cycle)
        super().tick(cycle)


class _CountingQuiet(_Quiet):
    """The goldens' duck-typed provider, logging the cycles it ticks at."""

    def __init__(self, ticks):
        self.ticks = ticks

    def tick(self, cycle):
        self.ticks.append(cycle)


def _tick_logs(kernel, monkeypatch, provider):
    """Per path and engine: the finish cycles of an fft run whose cores
    get ``provider(log)``, and each core's tick log."""
    observed = {}
    for use_kernel in (True, False):
        monkeypatch.setattr(core, "_kernel", kernel if use_kernel else None)
        for engine in ENGINES:
            monkeypatch.setenv("REPRO_ENGINE", engine)
            logs = {}
            result = run_parallel_workload(
                "fft", "casras-crit",
                lambda core_id: provider(logs.setdefault(core_id, [])),
                scale=SCALE,
            )
            observed[use_kernel, engine] = (
                result.finish_cycles, [logs[i] for i in sorted(logs)])
    return observed


def test_a_due_tick_runs_at_the_same_cycles_on_every_path(kernel,
                                                          monkeypatch):
    """A CBP that resets every 300 cycles ticks at its resets, and only
    there, on the kernel and on the Python bodies, on both engines."""
    observed = _tick_logs(kernel, monkeypatch, lambda log: _CountingCbp(
        log, entries=64, reset_interval=300))
    first = observed[True, "naive"]
    assert all(value == first for value in observed.values())
    finish, logs = first
    for end, ticks in zip(finish, logs):
        assert ticks == list(range(300, end, 300))
    assert any(logs)


def test_a_duck_typed_provider_ticks_every_cycle(kernel, monkeypatch):
    """A provider without ``next_tick_cycle`` ticks at every cycle its
    core steps, on both paths and both engines."""
    observed = _tick_logs(kernel, monkeypatch, _CountingQuiet)
    first = observed[True, "naive"]
    assert all(value == first for value in observed.values())
    finish, logs = first
    for end, ticks in zip(finish, logs):
        assert ticks == list(range(end))
