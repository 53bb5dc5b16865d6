"""Per-layer tracing of the simulator from outside it.

:class:`Tracer` replaces public methods and module functions of the
simulator with wrappers that record one span per call: self time
(inclusive time minus the time of child spans), inclusive time, exact call
counts, and the caller -> callee edge.  Nothing inside ``src/`` changes;
:meth:`Tracer.uninstall` puts every original back.

Two cuts follow from wrapping only public entry points:

* private methods are billed to the public method that calls them (the
  core's ``_do_commit`` is ``cpu`` time inside ``OutOfOrderCore.step``);
* an event callback runs as a child span of the layer that *scheduled*
  it (``EventQueue.schedule`` is wrapped to wrap the callback), so a
  cache-fill callback fired from ``EventQueue.run_due`` is ``cache`` time,
  not ``sim.events`` time.

Layer names are the simulator's module names.
"""

from __future__ import annotations

import time

#: Spans kept for the Chrome trace (the first ones of the pass).
SPAN_CAP = 200_000


# ------------------------------------------------------------- outcome counters
# Each takes (counters, call args, return value) and counts what the call
# achieved, so that ratios are measured where the work happens.


def _bump(counters, key, amount=1):
    counters[key] = counters.get(key, 0) + amount


def _skip_plan(counters, args, result):
    if result is None:
        _bump(counters, "cpu.skip_plan.none")


def _step_window(counters, args, result):
    _bump(counters, "cpu.step_window.cycles", result)


def _load(counters, args, result):
    if result is None:
        _bump(counters, "cache.load.replays")


def _run_due(counters, args, result):
    _bump(counters, "sim.events.fired", result)


def _try_enqueue(counters, args, result):
    if not result:
        _bump(counters, "dram.enqueue.refused")


def _select(counters, args, result):
    _bump(counters, "sched.candidates", len(args[1]))
    if result is not None:
        _bump(counters, "dram.select.issued")


def _load_cached(counters, args, result):
    if result is not None:
        _bump(counters, "sim.engine.cache_hits")


def _annotate(counters, args, result):
    if result[0]:
        _bump(counters, "core.critical")


PROVIDER_HOOKS = (
    "annotate", "on_block_start", "on_blocked_commit", "on_load_consumers",
    "tick",
)


def _subclasses(cls):
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(_subclasses(sub))
    return found


def targets(setup_only: bool = False):
    """``(layer, owner, attribute, outcome)`` for every traced entry point.

    ``setup_only`` keeps the two set-up phases (trace generation and
    ``System`` construction), which untraced passes time.
    """
    from repro.analysis import detchain
    from repro.cache.hierarchy import MemoryHierarchy
    from repro.core.fields import FieldsLikeProvider  # noqa: F401  (subclass)
    from repro.core.provider import CriticalityProvider
    from repro.cpu.core import OutOfOrderCore
    from repro.dram.controller import ChannelController, MemorySystem
    from repro.experiments import fig4
    from repro.sched import registry  # noqa: F401  (loads every policy)
    from repro.sched.base import Scheduler
    from repro.sim import engine
    from repro.sim.events import EventQueue
    from repro.sim.system import System
    from repro.workloads import multiprog, parallel

    setup = [
        ("workloads", parallel, "generate_trace", None),
        ("workloads", multiprog, "generate_trace", None),
        ("sim.system", System, "__init__", None),
    ]
    if setup_only:
        return setup
    found = setup + [
        ("cpu", OutOfOrderCore, "step", None),
        ("cpu", OutOfOrderCore, "step_window", _step_window),
        ("cpu", OutOfOrderCore, "skip_plan", _skip_plan),
        ("cpu", OutOfOrderCore, "begin_skip", None),
        ("cpu", OutOfOrderCore, "flush_skip", None),
        ("cache", MemoryHierarchy, "load", _load),
        ("cache", MemoryHierarchy, "store", None),
        ("cache", MemoryHierarchy, "can_accept_store", None),
        ("sim.events", EventQueue, "run_due", _run_due),
        ("sim.events", EventQueue, "schedule", None),
        ("dram", MemorySystem, "step", None),
        ("dram", MemorySystem, "step_event", None),
        ("dram", MemorySystem, "step_window", None),
        ("dram", MemorySystem, "try_enqueue", _try_enqueue),
        ("dram", MemorySystem, "wake_cpu", None),
        ("dram", ChannelController, "step", None),
        ("analysis.detchain", detchain, "snapshot", None),
        ("analysis.detchain", detchain.DetChain, "sample", None),
        ("sim.system", System, "run", None),
        ("sim.engine", engine, "spec_key", None),
        ("sim.engine", engine, "load_cached", _load_cached),
        ("sim.engine", engine, "store_cached", None),
        ("sim.engine", engine, "run_many", None),
        ("experiments", fig4, "run", None),
    ]
    for cls in _subclasses(Scheduler):
        found.append(("sched", cls, "select", _select))
    for cls in _subclasses(CriticalityProvider):
        for hook in PROVIDER_HOOKS:
            found.append(
                ("core", cls, hook, _annotate if hook == "annotate" else None)
            )
    return found


def span_name(owner, attribute: str) -> str:
    """``Class.method`` or ``module.function`` (last dotted component)."""
    return f"{owner.__name__.rsplit('.', 1)[-1]}.{attribute}"


class Tracer:
    """Span recorder; see the module docstring."""

    def __init__(self, span_cap: int = SPAN_CAP):
        #: span name -> [layer, calls, self_ns, inclusive_ns]
        self.functions: dict[str, list] = {}
        #: (caller span name or None, callee span name) -> calls
        self.edges: dict[tuple, int] = {}
        #: outcome counter -> total (see the outcome functions above)
        self.counters: dict[str, int] = {}
        #: select span name -> scheduler policy name
        self.policies: dict[str, str] = {}
        #: (name, layer, start_ns, duration_ns) of the first ``span_cap``
        self.spans: list[tuple] = []
        self.span_cap = span_cap
        self._stack: list[list] = []
        self._patches: list[tuple] = []

    # ---------------------------------------------------------------- wrapping

    def span(self, name: str, layer: str, fn, outcome=None):
        """``fn`` wrapped to record a span named ``name`` per call."""
        stat = self.functions.get(name)
        if stat is None:
            stat = self.functions[name] = [layer, 0, 0, 0]
        stack = self._stack
        edges = self.edges
        spans = self.spans
        cap = self.span_cap
        counters = self.counters
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            frame = [name, layer, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                stat[1] += 1
                stat[2] += duration - frame[2]
                stat[3] += duration
                if stack:
                    parent = stack[-1]
                    parent[2] += duration
                    edge = (parent[0], name)
                else:
                    edge = (None, name)
                edges[edge] = edges.get(edge, 0) + 1
                if len(spans) < cap:
                    spans.append((name, layer, start, duration))
            if outcome is not None:
                outcome(counters, args, result)
            return result

        return traced

    def _scheduling(self, schedule):
        """``EventQueue.schedule`` whose callback becomes a span of the
        layer that scheduled it."""
        traced_schedule = self.span("EventQueue.schedule", "sim.events", schedule)
        stack = self._stack

        def schedule_traced(queue, cycle, fn):
            layer = stack[-1][1] if stack else "sim.events"
            callback = self.span(f"{layer}.callback", layer, fn)
            return traced_schedule(queue, cycle, callback)

        return schedule_traced

    def install(self, entries) -> None:
        """Wrap every ``(layer, owner, attribute, outcome)`` entry.

        Originals are resolved before anything is replaced, so a subclass
        that inherits a method wraps the original, never a wrapper.
        """
        resolved = [
            (layer, owner, attribute, outcome, getattr(owner, attribute),
             attribute in vars(owner))
            for layer, owner, attribute, outcome in entries
        ]
        for layer, owner, attribute, outcome, original, own in resolved:
            name = span_name(owner, attribute)
            if attribute == "schedule" and layer == "sim.events":
                wrapper = self._scheduling(original)
            else:
                wrapper = self.span(name, layer, original, outcome)
            if layer == "sched":
                self.policies[name] = owner.name
            self._patches.append((owner, attribute, original, own))
            setattr(owner, attribute, wrapper)

    def uninstall(self) -> None:
        """Restore every original; idempotent."""
        while self._patches:
            owner, attribute, original, own = self._patches.pop()
            if own:
                setattr(owner, attribute, original)
            else:
                delattr(owner, attribute)

    # ---------------------------------------------------------------- reading

    def calls(self, name: str) -> int:
        stat = self.functions.get(name)
        return stat[1] if stat else 0

    def inclusive_s(self, name: str) -> float:
        stat = self.functions.get(name)
        return stat[3] / 1e9 if stat else 0.0

    def layer_self_s(self) -> dict[str, float]:
        totals: dict[str, float] = {}
        for layer, _calls, self_ns, _incl in self.functions.values():
            totals[layer] = totals.get(layer, 0.0) + self_ns / 1e9
        return totals

    def calls_matching(self, suffix: str, layer: str) -> int:
        return sum(
            stat[1]
            for name, stat in self.functions.items()
            if stat[0] == layer and name.endswith(suffix)
        )

    def chrome_trace(self) -> dict:
        """The recorded spans as a Chrome ``trace_event`` document."""
        # Spans are appended as they close, so an enclosing span comes
        # after the spans it contains.
        origin = min((span[2] for span in self.spans), default=0)
        events = [
            {"name": "process_name", "ph": "M", "pid": 1, "tid": 1,
             "args": {"name": "simulator (traced pass)"}},
        ]
        for name, layer, start, duration in self.spans:
            events.append({
                "name": name, "cat": layer, "ph": "X", "pid": 1, "tid": 1,
                "ts": (start - origin) // 1000, "dur": duration // 1000,
            })
        return {"traceEvents": events, "displayTimeUnit": "ns"}

    def detail(self) -> dict:
        """Every function and edge, for the result record."""
        return {
            "functions": {
                name: {"layer": layer, "calls": calls,
                       "self_s": self_ns / 1e9, "inclusive_s": incl / 1e9}
                for name, (layer, calls, self_ns, incl)
                in sorted(self.functions.items())
            },
            "edges": [
                [caller, callee, calls]
                for (caller, callee), calls in sorted(
                    self.edges.items(), key=lambda kv: (str(kv[0][0]), kv[0][1])
                )
            ],
            "counters": dict(sorted(self.counters.items())),
        }


def _ratio(numerator, denominator) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer_metrics(tracer: Tracer, wall_s: float, runs: list[dict]) -> dict:
    """Per-layer metrics of one traced pass, as ``name -> (value, unit)``.

    ``runs`` are the pass's simulations (dicts with ``cycles``,
    ``committed`` per core, ``reads``/``writes`` done and ``source``).
    """
    t = tracer
    c = t.counters
    layers = t.layer_self_s()
    simulated = [r for r in runs if r["source"] == "run"]
    cycles = sum(r["cycles"] for r in simulated)
    core_cycles = sum(
        r["cycles"] * sum(1 for n in r["committed"] if n) for r in simulated
    )
    reads = sum(r["reads"] for r in simulated)
    writes = sum(r["writes"] for r in simulated)

    steps = t.calls("OutOfOrderCore.step")
    windows = t.calls("OutOfOrderCore.step_window")
    loads = t.calls("MemoryHierarchy.load")
    channel_steps = t.calls("ChannelController.step")
    enqueues = t.calls("MemorySystem.try_enqueue")
    selects = t.calls_matching(".select", "sched")
    annotates = t.calls_matching(".annotate", "core")
    select_ns = sum(
        stat[2] for name, stat in t.functions.items() if name in t.policies
    )

    m = {
        "cpu.self_s": (layers.get("cpu", 0.0), "s"),
        "cpu.step.calls": (steps, "count"),
        "cpu.busy_frac": (_ratio(steps, core_cycles), "frac"),
        "cpu.skip_plan.miss_frac": (
            _ratio(c.get("cpu.skip_plan.none", 0),
                   t.calls("OutOfOrderCore.skip_plan")), "frac"),
        "cpu.step_window.calls": (windows, "count"),
        "cpu.window_cycles_per_call": (
            _ratio(c.get("cpu.step_window.cycles", 0), windows), "cycles"),
        "cache.self_s": (layers.get("cache", 0.0), "s"),
        "cache.load.calls": (loads, "count"),
        "cache.load.replay_frac": (
            _ratio(c.get("cache.load.replays", 0), loads), "frac"),
        "cache.store.calls": (t.calls("MemoryHierarchy.store"), "count"),
        "sim.events.self_s": (layers.get("sim.events", 0.0), "s"),
        "sim.events.run_due.calls": (t.calls("EventQueue.run_due"), "count"),
        "sim.events.fired": (c.get("sim.events.fired", 0), "count"),
        "dram.self_s": (layers.get("dram", 0.0), "s"),
        "dram.channel_step.calls": (channel_steps, "count"),
        "dram.issue_frac": (
            _ratio(c.get("dram.select.issued", 0), channel_steps), "frac"),
        "dram.enqueue.calls": (enqueues, "count"),
        "dram.enqueue.refused_frac": (
            _ratio(c.get("dram.enqueue.refused", 0), enqueues), "frac"),
        "dram.write_frac": (_ratio(writes, reads + writes), "frac"),
        "sched.self_s": (layers.get("sched", 0.0), "s"),
        "sched.select.calls": (selects, "count"),
        "sched.candidates_per_select": (
            _ratio(c.get("sched.candidates", 0), selects), "count"),
        "sched.select_us": (_ratio(select_ns / 1e3, selects), "us"),
        "core.self_s": (layers.get("core", 0.0), "s"),
        "core.annotate.calls": (annotates, "count"),
        "core.tick.calls": (t.calls_matching(".tick", "core"), "count"),
        "core.critical_frac": (
            _ratio(c.get("core.critical", 0), annotates), "frac"),
        "analysis.detchain.self_s": (layers.get("analysis.detchain", 0.0), "s"),
        "analysis.detchain.snapshot.calls": (
            t.calls("detchain.snapshot"), "count"),
        "sim.system.self_s": (layers.get("sim.system", 0.0), "s"),
        "sim.system.init_s": (t.inclusive_s("System.__init__"), "s"),
        "workloads.self_s": (layers.get("workloads", 0.0), "s"),
        "workloads.traces": (
            t.calls_matching(".generate_trace", "workloads"), "count"),
        "sim.engine.self_s": (layers.get("sim.engine", 0.0), "s"),
        "sim.engine.spec_key_s": (t.inclusive_s("engine.spec_key"), "s"),
        "sim.engine.cache_load_s": (t.inclusive_s("engine.load_cached"), "s"),
        "sim.engine.cache_store_s": (t.inclusive_s("engine.store_cached"), "s"),
        "sim.engine.runs": (len(simulated), "count"),
        "sim.engine.cache_hits": (c.get("sim.engine.cache_hits", 0), "count"),
        "experiments.self_s": (layers.get("experiments", 0.0), "s"),
        "sim.cycles": (cycles, "count"),
        "sim.instructions": (
            sum(sum(r["committed"]) for r in simulated), "count"),
        "trace.wall_s": (wall_s, "s"),
        "trace.attributed_frac": (_ratio(sum(layers.values()), wall_s), "frac"),
    }
    for name, policy in sorted(t.policies.items()):
        calls = t.calls(name)
        if calls:
            m[f"sched.{policy}.select_us"] = (
                t.functions[name][2] / 1e3 / calls, "us")
    return m
