"""Workload generators: determinism, mix, structure, pinned content."""

import hashlib
import random
import struct

import pytest
from hypothesis import example, given, strategies as st

from repro.cpu.instruction import BRANCH, INT, LOAD, STORE, Trace
from repro.workloads.models import PARALLEL_APPS, SPEC_APPS
from repro.workloads.multiprog import BUNDLES, bundle_traces
from repro.workloads.parallel import PARALLEL_APP_NAMES, parallel_traces
from repro.workloads.scenario import ROLES, scenario_traces
from repro.workloads.synthetic import clear_trace_cache, generate_trace


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_trace_cache()
    yield
    clear_trace_cache()


class TestDeterminism:
    def test_same_args_same_trace(self):
        model = PARALLEL_APPS["fft"]
        clear_trace_cache()
        a = generate_trace(model, 2000, 0, 8, seed=1)
        clear_trace_cache()
        b = generate_trace(model, 2000, 0, 8, seed=1)
        assert a.itypes == b.itypes
        assert a.addrs == b.addrs
        assert a.pcs == b.pcs

    def test_seeds_differ(self):
        model = PARALLEL_APPS["fft"]
        a = generate_trace(model, 2000, 0, 8, seed=1)
        b = generate_trace(model, 2000, 0, 8, seed=2)
        assert a.addrs != b.addrs

    def test_cache_returns_same_object(self):
        model = PARALLEL_APPS["fft"]
        a = generate_trace(model, 2000, 0, 8, seed=1)
        b = generate_trace(model, 2000, 0, 8, seed=1)
        assert a is b


class TestStructure:
    def test_exact_length(self):
        model = PARALLEL_APPS["mg"]
        trace = generate_trace(model, 3333, 0, 8, seed=1)
        assert len(trace) == 3333

    def test_threads_share_static_code(self):
        t0 = parallel_traces("fft", 2, 8000, seed=1)[0]
        t1 = parallel_traces("fft", 2, 8000, seed=1)[1]
        # Same SPMD program: the threads draw PCs from one static pool
        # (which loop bodies each thread visits varies).
        shared = t0.static_pcs() & t1.static_pcs()
        assert shared
        universe = t0.static_pcs() | t1.static_pcs()
        assert max(universe) < 16 * 1024  # one program's PC space

    def test_threads_have_disjoint_private_regions(self):
        traces = parallel_traces("fft", 2, 4000, seed=1)
        model = PARALLEL_APPS["fft"]
        shared_limit = max(64 * 1024, model.footprint_bytes // 4)
        private = []
        for t in traces:
            addrs = {a for a, ty in zip(t.addrs, t.itypes)
                     if ty in (LOAD, STORE) and a >= shared_limit}
            private.append(addrs)
        assert not (private[0] & private[1])

    def test_prewarm_hints_present(self):
        trace = generate_trace(PARALLEL_APPS["fft"], 1000, 0, 8, seed=1)
        assert len(trace.prewarm) == 2
        levels = {level for _b, _n, level in trace.prewarm}
        assert levels == {1, 2}

    def test_dependencies_point_backwards(self):
        trace = generate_trace(PARALLEL_APPS["scalparc"], 3000, 0, 8, seed=1)
        for i in range(len(trace)):
            assert trace.dep1[i] >= 0
            assert trace.dep2[i] >= 0

    def test_mispredicts_only_on_branches(self):
        trace = generate_trace(PARALLEL_APPS["fft"], 3000, 0, 8, seed=1)
        for ty, m in zip(trace.itypes, trace.misp):
            if m:
                assert ty == BRANCH


COLUMNS = ("itypes", "pcs", "addrs", "dep1", "dep2", "misp")
FIELDS = ("itype", "pc", "addr", "dep1", "dep2", "misp")
LIMITS = (STORE + 1, 1 << 32, 1 << 64, 1 << 16, 1 << 16, 2)


class TestTraceColumns:
    @given(st.lists(st.tuples(
        st.integers(INT, STORE),
        st.integers(0, (1 << 32) - 1),
        st.integers(0, (1 << 64) - 1),
        st.integers(0, (1 << 16) - 1),
        st.integers(0, (1 << 16) - 1),
        st.booleans(),
    ), max_size=12))
    # Bundle slot 3: PCs at 3 * 2**20, addresses at 3 * 2**40.
    @example([(LOAD, 3 << 20, (3 << 40) + 4096, 1, 0, False),
              (BRANCH, (3 << 20) + 1, 0, 0, 2, True)])
    def test_in_range_values_round_trip(self, instructions):
        trace = Trace()
        for values in instructions:
            trace.append(*values)
        assert len(trace) == len(instructions)
        got = [trace.instruction(i) for i in range(len(trace))]
        assert got == instructions
        assert all(type(values[5]) is bool for values in got)

    @given(st.data())
    def test_out_of_range_field_raises_and_grows_nothing(self, data):
        field = data.draw(st.integers(0, len(FIELDS) - 1))
        bad = data.draw(st.integers(max_value=-1)
                        | st.integers(min_value=LIMITS[field]))
        values = [LOAD, 7, 64, 1, 0, False]
        values[field] = bad
        trace = Trace()
        trace.append(INT, 1)
        with pytest.raises(ValueError, match=f"^{FIELDS[field]} "):
            trace.append(*values)
        assert [len(getattr(trace, c)) for c in COLUMNS] == [1] * 6

    def test_generated_columns_stay_compact(self):
        """An 8-thread set holds at most 24 bytes per instruction in its
        columns, so they cannot silently turn back into lists."""
        traces = parallel_traces("swim", 8, 3000, seed=1)
        held = sum(memoryview(getattr(t, c)).nbytes
                   for t in traces for c in COLUMNS)
        assert held <= 24 * sum(len(t) for t in traces)


class TestSharedStaticProgram:
    """``parallel_traces`` builds one static program for all threads."""

    FIELDS = ("itypes", "pcs", "addrs", "dep1", "dep2", "misp", "prewarm")

    @pytest.mark.parametrize("app", ["ocean", "fft"])
    def test_threads_equal_standalone_traces(self, app):
        shared = parallel_traces(app, 8, 1500, seed=3)
        model = PARALLEL_APPS[app]
        for thread_id, trace in enumerate(shared):
            clear_trace_cache()
            alone = generate_trace(model, 1500, thread_id=thread_id,
                                   threads=8, seed=3)
            assert alone is not trace
            for field in self.FIELDS:
                assert getattr(trace, field) == getattr(alone, field), field

    @pytest.fixture
    def builds(self, monkeypatch):
        """Names of the apps whose static program gets built."""
        from repro.workloads import parallel, synthetic

        built = []
        build = synthetic.build_static_program

        def counting(model, seed):
            built.append(model.name)
            return build(model, seed)

        monkeypatch.setattr(parallel, "build_static_program", counting)
        monkeypatch.setattr(synthetic, "build_static_program", counting)
        return built

    def test_built_once_and_not_on_cache_hits(self, builds):
        first = parallel_traces("fft", 8, 1000, seed=1)
        assert builds == ["fft"]
        again = parallel_traces("fft", 8, 1000, seed=1)
        assert builds == ["fft"]
        assert all(a is b for a, b in zip(first, again))

    def test_partial_cache_hit_builds_once(self, builds):
        alone = generate_trace(PARALLEL_APPS["fft"], 1000, 0, 8, seed=1)
        assert builds == ["fft"]
        shared = parallel_traces("fft", 8, 1000, seed=1)
        assert builds == ["fft", "fft"]
        assert shared[0] is alone


def _digest(traces) -> str:
    """Digest of every column and the prewarm hints of ``traces``; the
    columns are packed little-endian at their standard item sizes, so the
    digest does not depend on the host."""
    digest = hashlib.sha256()
    for trace in traces:
        for name in COLUMNS:
            column = getattr(trace, name)
            if isinstance(column, bytearray):
                digest.update(column)
            else:
                digest.update(
                    struct.pack(f"<{len(column)}{column.typecode}", *column)
                )
        digest.update(repr(trace.prewarm).encode())
    return digest.hexdigest()[:16]


class TestPinnedTraces:
    """Trace content pinned to recorded digests.

    Each digest covers every column and prewarm hint of one workload's
    traces at two lengths and several seeds.  A change meant to leave
    generation bit-identical (an optimisation) must leave them all; the
    golden runs alone would miss most apps, lengths and seeds.
    """

    #: Parallel app -> digest of its 8-thread sets at seeds 1, 7, 3000,
    #: 12345 and 700 and 3500 instructions.
    PARALLEL = {
        "art": "04bbfcdaa19cbc95",
        "cg": "170d9f23e934aa9c",
        "equake": "6319fd4a55bebc05",
        "fft": "9411f7245de9bdec",
        "mg": "f5706589c2f95b05",
        "ocean": "d6d3b47a37b8ecb6",
        "radix": "c98bc260398dd817",
        "scalparc": "6acf2e50a4910d30",
        "swim": "ff6b0b7a52859646",
    }
    #: Bundle -> digest of its four traces at seeds 1, 9 and 700 and 2200
    #: instructions.
    BUNDLES = {
        "AELV": "e2ed54c05343031c",
        "CMLI": "7e164df615414e8c",
        "GAMV": "f9763963a60e7b7e",
        "GDPC": "44b9ac53a1ecf5c9",
        "GSMV": "2e10f660b5749be7",
        "RFEV": "74e2d6902768c834",
        "RFGI": "414d6a78e98b89fd",
        "RGTM": "5cd06a7d1c67c5db",
    }
    #: Scenario roles -> digest of its traces at 700 and 24,000
    #: instructions (recorded from the mechanism experiment's own trace
    #: builders, before they moved to ``repro.workloads.scenario``).
    SCENARIOS = {
        "LS": "30fb496bbec2bbf7",
        "SL": "7807aaf68973cb54",
    }

    @staticmethod
    def combined(make, seeds, lengths) -> str:
        digest = hashlib.sha256()
        for seed in seeds:
            for instructions in lengths:
                digest.update(_digest(make(instructions, seed)).encode())
                clear_trace_cache()
        return digest.hexdigest()[:16]

    def test_every_workload_is_pinned(self):
        assert sorted(self.PARALLEL) == sorted(PARALLEL_APP_NAMES)
        assert sorted(self.BUNDLES) == sorted(BUNDLES)
        assert sorted(set("".join(self.SCENARIOS))) == sorted(ROLES)

    @pytest.mark.parametrize("app", sorted(PARALLEL))
    def test_parallel_app(self, app):
        got = self.combined(
            lambda n, seed: parallel_traces(app, 8, n, seed=seed),
            (1, 7, 3000, 12345), (700, 3500),
        )
        assert got == self.PARALLEL[app]

    @pytest.mark.parametrize("bundle", sorted(BUNDLES))
    def test_bundle(self, bundle):
        got = self.combined(
            lambda n, seed: bundle_traces(bundle, n, seed=seed),
            (1, 9), (700, 2200),
        )
        assert got == self.BUNDLES[bundle]

    @pytest.mark.parametrize("roles", sorted(SCENARIOS))
    def test_scenario(self, roles):
        got = self.combined(
            lambda n, seed: scenario_traces(roles, n), (1,), (700, 24_000),
        )
        assert got == self.SCENARIOS[roles]


class TestInlineDraws:
    """Generation draws ``randrange(span)`` and ``randint(1, span)`` with
    the ``getrandbits`` rejection loop of CPython's
    ``Random._randbelow_with_getrandbits``, inline.  On this interpreter
    that loop must give the library's sequence and leave the generator
    where the library leaves it."""

    SPANS = sorted(
        set(range(1, 71))
        | {2**k + d for k in range(1, 41) for d in (-1, 0, 1)}
    )

    @staticmethod
    def below(rng, span):
        bits = span.bit_length()
        r = rng.getrandbits(bits)
        while r >= span:
            r = rng.getrandbits(bits)
        return r

    @pytest.mark.parametrize("seed", [1, 7, 12345])
    def test_matches_randrange_and_randint(self, seed):
        for span in self.SPANS:
            inline = random.Random(f"{seed}:{span}")
            library = random.Random(f"{seed}:{span}")
            assert ([self.below(inline, span) for _ in range(40)]
                    == [library.randrange(span) for _ in range(40)]), span
            assert ([1 + self.below(inline, span) for _ in range(40)]
                    == [library.randint(1, span) for _ in range(40)]), span
            assert inline.getstate() == library.getstate(), span


class TestMix:
    def test_load_fraction_close_to_model(self):
        model = PARALLEL_APPS["swim"]
        trace = generate_trace(model, 20000, 0, 8, seed=1)
        loads = trace.count_type(LOAD) / len(trace)
        # Base mix plus planted burst loads.
        assert model.load_frac * 0.7 < loads < model.load_frac + 0.15

    def test_memory_intensive_app_has_more_cold_traffic(self):
        # 'mg' (M) should touch far more distinct high addresses than 'ep' (P).
        def distinct_cold(name):
            model = SPEC_APPS[name]
            trace = generate_trace(model, 15000, 0, 1, seed=1)
            hot_warm = model.hot_bytes + model.warm_bytes + 64 * 1024 * 16
            return len({
                a // 64 for a, ty in zip(trace.addrs, trace.itypes)
                if ty == LOAD and a > hot_warm
            })
        assert distinct_cold("mg") > 3 * distinct_cold("ep")


class TestBundles:
    def test_all_bundles_defined(self):
        assert set(BUNDLES) == {
            "AELV", "CMLI", "GAMV", "GDPC", "GSMV", "RFEV", "RFGI", "RGTM"
        }

    def test_bundles_are_four_apps(self):
        for apps in BUNDLES.values():
            assert len(apps) == 4
            for app in apps:
                assert app in SPEC_APPS

    def test_disjoint_pc_and_address_spaces(self):
        traces = bundle_traces("AELV", 3000, seed=1)
        pcs = [t.static_pcs() for t in traces]
        for i in range(4):
            for j in range(i + 1, 4):
                assert not (pcs[i] & pcs[j])
        addr_sets = [
            {a for a, ty in zip(t.addrs, t.itypes) if ty in (LOAD, STORE) and a}
            for t in traces
        ]
        for i in range(4):
            for j in range(i + 1, 4):
                assert not (addr_sets[i] & addr_sets[j])

    def test_unknown_bundle_raises(self):
        with pytest.raises(ValueError):
            bundle_traces("NOPE", 100)

    def test_unknown_app_raises(self):
        with pytest.raises(ValueError):
            parallel_traces("nosuch", 2, 100)


class TestModels:
    def test_nine_parallel_apps(self):
        assert len(PARALLEL_APPS) == 9
        assert set(PARALLEL_APP_NAMES) == set(PARALLEL_APPS)

    def test_sensitivity_classes(self):
        assert SPEC_APPS["ep"].sensitivity == "P"
        assert SPEC_APPS["mcf"].sensitivity == "M"
        assert SPEC_APPS["vpr"].sensitivity == "C"

    def test_ocean_has_large_static_population(self):
        assert PARALLEL_APPS["ocean"].static_loads > 5 * PARALLEL_APPS["art"].static_loads
