"""The layer tracer: span arithmetic, callback attribution, clean removal."""

import spans
from repro.config import SimScale
from repro.sim.events import EventQueue
from repro.sim.runner import run_parallel_workload
from repro.sim.stats import result_fingerprint
from repro.telemetry.trace import validate_chrome_trace


class FakeClock:
    """perf_counter_ns stand-in that moves only when told to."""

    def __init__(self):
        self.now = 1_000

    def __call__(self):
        return self.now

    def spend(self, ns):
        self.now += ns


def test_self_time_is_inclusive_minus_children(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr(spans.time, "perf_counter_ns", clock)

    class Model:
        def outer(self):
            clock.spend(5)
            self.inner()
            self.inner()
            clock.spend(2)

        def inner(self):
            clock.spend(3)

    tracer = spans.Tracer()
    tracer.install([("a", Model, "outer", None), ("b", Model, "inner", None)])
    try:
        Model().outer()
        Model().outer()
    finally:
        tracer.uninstall()

    layer, calls, self_ns, incl_ns = tracer.functions["Model.outer"]
    assert (layer, calls, self_ns, incl_ns) == ("a", 2, 14, 26)
    layer, calls, self_ns, incl_ns = tracer.functions["Model.inner"]
    assert (layer, calls, self_ns, incl_ns) == ("b", 4, 12, 12)
    assert tracer.edges == {(None, "Model.outer"): 2,
                            ("Model.outer", "Model.inner"): 4}
    assert tracer.layer_self_s() == {"a": 14e-9, "b": 12e-9}
    assert len(tracer.spans) == 6
    assert validate_chrome_trace(tracer.chrome_trace()) == []


def test_span_cap_and_outcomes(monkeypatch):
    class Model:
        def probe(self, value):
            return value

    def count_none(counters, args, result):
        if result is None:
            spans._bump(counters, "misses")

    tracer = spans.Tracer(span_cap=3)
    tracer.install([("a", Model, "probe", count_none)])
    try:
        for value in (None, 1, None, 2, None):
            Model().probe(value)
    finally:
        tracer.uninstall()
    assert tracer.calls("Model.probe") == 5
    assert tracer.counters == {"misses": 3}
    assert len(tracer.spans) == 3


def test_callback_is_billed_to_the_scheduling_layer():
    class Cache:
        def __init__(self, events):
            self.events = events
            self.filled = 0

        def load(self):
            self.events.schedule(4, self.fill)

        def fill(self):
            self.filled += 1

    events = EventQueue()
    cache = Cache(events)
    tracer = spans.Tracer()
    tracer.install([
        ("sim.events", EventQueue, "schedule", None),
        ("sim.events", EventQueue, "run_due", spans._run_due),
        ("cache", Cache, "load", None),
    ])
    try:
        cache.load()
        events.schedule(4, lambda: None)  # outside any span
        events.run_due(4)
    finally:
        tracer.uninstall()
    assert cache.filled == 1
    assert tracer.functions["cache.callback"][:2] == ["cache", 1]
    assert tracer.functions["sim.events.callback"][:2] == ["sim.events", 1]
    assert tracer.edges[("EventQueue.run_due", "cache.callback")] == 1
    assert tracer.edges[("Cache.load", "EventQueue.schedule")] == 1
    assert tracer.counters == {"sim.events.fired": 2}


def _tiny_run(scheduler, provider):
    scale = SimScale(instructions_per_core=600, warmup_instructions=100, seed=3)
    return run_parallel_workload("fft", scheduler, provider, scale=scale)


def test_wrappers_are_removed_and_results_unchanged():
    entries = spans.targets()
    before = {
        (owner, attribute): vars(owner).get(attribute, "<inherited>")
        for _layer, owner, attribute, _outcome in entries
    }
    untraced = _tiny_run("casras-crit", ("cbp", {"entries": 64}))

    tracer = spans.Tracer()
    tracer.install(entries)
    try:
        assert any(
            vars(owner).get(attribute) is not original
            for (owner, attribute), original in before.items()
        )
        traced = _tiny_run("casras-crit", ("cbp", {"entries": 64}))
    finally:
        tracer.uninstall()

    after = {
        (owner, attribute): vars(owner).get(attribute, "<inherited>")
        for _layer, owner, attribute, _outcome in entries
    }
    assert after == before
    assert all(after[key] is before[key] for key in before)
    assert result_fingerprint(traced) == result_fingerprint(untraced)

    metrics = spans.per_layer_metrics(tracer, 1.0, [{
        "source": "run", "cycles": traced.cycles,
        "committed": list(traced.committed),
        "reads": sum(c.reads_done for c in traced.channels),
        "writes": sum(c.writes_done for c in traced.channels),
    }])
    assert metrics["cpu.step.calls"][0] > 0
    assert metrics["sched.select.calls"][0] > 0
    assert "sched.casras-crit.select_us" in metrics
    assert metrics["core.annotate.calls"][0] == metrics["cache.load.calls"][0]
    assert metrics["sim.instructions"][0] == sum(traced.committed)
    assert validate_chrome_trace(tracer.chrome_trace()) == []
