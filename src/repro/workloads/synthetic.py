"""Synthetic trace engine.

Turns an :class:`~repro.workloads.models.AppModel` into a deterministic,
dependency-annotated dynamic instruction stream with loop structure:

* The *static* program is a set of loop bodies generated once per (app,
  seed) — every thread of a parallel app shares the same static code and
  PCs, as real SPMD programs do.
* Each static load belongs to an address class: **hot** (small private
  region, cache-resident), **stream** (sequential walk through a large
  region — row-buffer friendly, L2-missing), **random** (uniform over the
  footprint), or **chase** (random address *and* a serial dependence on the
  previous chase load — art's double-pointer traversals).
* Cold accesses may target the thread-shared region (coherence traffic and
  cross-thread row locality).
* The *dynamic* stream interleaves the bodies in weighted loops, so the
  same static PCs recur — which is precisely the behaviour a PC-indexed
  predictor exploits.

Generation is pure: the same arguments always produce the same trace, and
results are memoised because experiments re-run the same workload under
many scheduler configurations.  Inside a :func:`repro.sim.engine.run_many`
batch each process keeps only the trace set of the run it executes
(:func:`hold_trace_set`); outside one the memo keeps every trace until
:func:`clear_trace_cache`.
"""

from __future__ import annotations

import math
import random
from array import array

from repro.cpu.instruction import BRANCH, FP, INT, LOAD, STORE, Trace
from repro.workloads.models import AppModel

#: Address-class tags for static memory instructions.
_HOT, _WARM, _STREAM, _RANDOM, _CHASE = range(5)


class _StaticInstr:
    __slots__ = ("itype", "pc", "klass", "shared", "dep1", "dep2")

    def __init__(self, itype, pc, klass=_HOT, shared=False, dep1=0, dep2=0):
        self.itype = itype
        self.pc = pc
        self.klass = klass
        self.shared = shared
        self.dep1 = dep1
        self.dep2 = dep2


class _Body:
    """One loop body: its statics plus the positions of its cold burst.

    Every body carries a burst statically; whether an *iteration* actually
    goes to DRAM is decided at emission time (inactive iterations read the
    warm region instead), so the long-run cold-load rate is controlled
    without making the static program structurally random.
    """

    __slots__ = ("specs", "burst_positions", "burst_order", "body_id", "solo_position")

    def __init__(self, specs, burst_positions, body_id=0, solo_position=None):
        self.specs = specs
        self.burst_positions = burst_positions
        # Position -> index within the burst (0 = leader).
        self.burst_order = {
            pos: k for k, pos in enumerate(sorted(burst_positions))
        }
        self.body_id = body_id
        self.solo_position = solo_position

    def __len__(self):
        return len(self.specs)


def build_static_program(model: AppModel, seed: int):
    """The loop bodies (lists of :class:`_StaticInstr`) for one app.

    Pure and read-only once built, so every thread of a parallel app can
    share one (see :func:`generate_trace`'s ``program``).

    Bodies come in two flavours, as real kernels do:

    * *memory bodies* carry one burst of DRAM-bound loads — ``~model.mlp``
      independent cold loads placed back to back (or a serial chain, for
      pointer-chase loads) — amid ordinary cache-resident work;
    * *compute bodies* touch only hot/warm data.

    The memory-body probability is derived so the long-run cold-load rate
    matches ``(1 - hot_frac) * (1 - warm_frac)`` of all loads.
    """
    rng = random.Random(f"static:{model.name}:{seed}")
    getrandbits = rng.getrandbits
    loads_per_body = max(1, round(model.body_len * model.load_frac))
    body_count = max(model.body_count, -(-model.static_loads // loads_per_body))

    bodies = []
    next_pc = 0
    for body_index in range(body_count):
        burst_size = max(1, round(rng.gauss(model.mlp, model.mlp / 3)))

        # --- phase 1: the instruction/class sequence -----------------------
        specs: list[_StaticInstr] = []
        for _ in range(model.body_len):
            r = rng.random()
            if r < model.load_frac:
                itype = LOAD
            elif r < model.load_frac + model.store_frac:
                itype = STORE
            elif r < model.load_frac + model.store_frac + model.branch_frac:
                itype = BRANCH
            else:
                itype = FP if rng.random() < model.fp_frac else INT
            instr = _StaticInstr(itype, next_pc)
            next_pc += 1
            if itype in (LOAD, STORE):
                instr.klass, instr.shared = _pick_warm_or_hot(model, rng, itype)
            specs.append(instr)

        # --- phase 2: plant the cold burst and the singleton miss ----------
        # Besides the gather burst (the body's memory phase), each body has
        # one *singleton* cold load: an isolated pointer/index lookup that
        # fires independently of the phase.  Singletons miss while the core
        # is otherwise cache-resident and latency-bound — the paper's most
        # critical loads.
        burst_positions: set[int] = set()
        solo_position = rng.randrange(model.body_len)
        if burst_size:
            shared = rng.random() < model.shared_frac
            chase = rng.random() < model.pointer_chase_frac
            klass = _CHASE if chase else (
                _STREAM if rng.random() < model.stream_frac else _RANDOM
            )
            # Spread the burst across the body: the out-of-order window
            # issues the members near-simultaneously (MLP), but the commit
            # stream needs each one only after the compute between them —
            # that compute is the followers' latency slack.
            spacing = max(1, model.body_len // burst_size)
            start = rng.randint(0, max(0, spacing - 1))
            for k in range(burst_size):
                pos = min(start + k * spacing, model.body_len - 1)
                instr = specs[pos]
                # Real kernels write a result stream alongside their
                # gathers (c[i] = f(a[i], b[i])): every third member is a
                # store, whose read-for-ownership and eventual write-back
                # are the slack DRAM traffic criticality defers.
                if klass != _CHASE and k % 3 == 2:
                    instr.itype = STORE
                else:
                    instr.itype = LOAD
                instr.klass = klass
                instr.shared = shared
                burst_positions.add(pos)
        if solo_position in burst_positions:
            solo_position = (max(burst_positions) + 1) % model.body_len
            if solo_position in burst_positions:
                solo_position = None
        if solo_position is not None:
            instr = specs[solo_position]
            instr.itype = LOAD
            instr.klass = _RANDOM
            instr.shared = rng.random() < model.shared_frac
            # Serialise successive singletons (a pointer walk): each one
            # blocks the ROB head for its full latency, making singleton
            # PCs the stably-most-critical loads, as in the paper's art.
            instr.dep1 = model.body_len
            instr.dep2 = 0

        # --- phase 3: dependencies ------------------------------------------
        pending_consumers: list[list[int]] = []  # [load position, remaining]
        prev_chase_pos = None
        for pos, instr in enumerate(specs):
            in_burst = pos in burst_positions
            if in_burst:
                # Burst members are mutually independent (that is the MLP),
                # except pointer chases, which serialise.
                if instr.klass == _CHASE:
                    if prev_chase_pos is not None:
                        instr.dep1 = pos - prev_chase_pos
                    else:
                        instr.dep1 = model.body_len  # loop-carried chain
                    prev_chase_pos = pos
                continue
            dep_assigned = False
            if pending_consumers and pending_consumers[0][0] < pos:
                chain = pending_consumers[0]
                instr.dep1 = pos - chain[0]
                dep_assigned = True
                chain[1] -= 1
                if chain[1] <= 0:
                    pending_consumers.pop(0)
            # Distances draw as Random.randint(1, span) does: its
            # getrandbits rejection loop, inline.
            if not dep_assigned and pos > 0 and rng.random() < 0.75:
                span = min(pos, 10)
                bits = span.bit_length()
                r = getrandbits(bits)
                while r >= span:
                    r = getrandbits(bits)
                dist = 1 + r
                if (pos - dist) not in burst_positions:
                    instr.dep1 = dist
            if pos > 1 and rng.random() < 0.15:
                span = min(pos, 16)
                bits = span.bit_length()
                r = getrandbits(bits)
                while r >= span:
                    r = getrandbits(bits)
                dist = 1 + r
                if (pos - dist) not in burst_positions:
                    instr.dep2 = dist
            if instr.itype == LOAD:
                consumers = _poisson_at_least_zero(rng, model.consumer_mean)
                if consumers:
                    pending_consumers.append([pos, consumers])
        # Cold loads feed later work too: one consumer per burst leader.
        if burst_positions:
            first = min(burst_positions)
            last = max(burst_positions)
            for pos in range(last + 1, min(last + 3, model.body_len)):
                specs[pos].dep2 = pos - first
        # Loop-carried dependence: tie each iteration to the previous one.
        if specs[0].dep1 == 0 and 0 not in burst_positions:
            specs[0].dep1 = model.body_len
        bodies.append(
            _Body(specs, burst_positions, body_id=body_index,
                  solo_position=solo_position)
        )
    return bodies


def _pick_warm_or_hot(model: AppModel, rng: random.Random, itype: int):
    """(address class, shared?) for ordinary (non-burst) memory statics.

    Loads are hot or warm (DRAM-bound loads are planted by the burst
    machinery); stores additionally stream through DRAM with a small
    probability, generating write-back traffic.
    """
    if itype == STORE and rng.random() < 0.08:
        return _STREAM, False
    if rng.random() < model.hot_frac:
        return _HOT, False
    return _WARM, False


def _poisson_at_least_zero(rng: random.Random, mean: float) -> int:
    """Small-mean Poisson sample (inverse-CDF; mean <= ~4 in practice)."""
    u = rng.random()
    p = math.exp(-mean)
    cdf = p
    k = 0
    while u > cdf and k < 16:
        k += 1
        p *= mean / k
        cdf += p
    return k


class _TraceMemo(dict):
    """Generated traces by their arguments; ``held`` names the trace set
    :func:`hold_trace_set` last kept (None after :func:`clear_trace_cache`)."""

    held = None


_TRACE_CACHE = _TraceMemo()


def clear_trace_cache() -> None:
    _TRACE_CACHE.clear()
    _TRACE_CACHE.held = None


def hold_trace_set(name) -> None:
    """Keep trace set ``name`` (:func:`repro.sim.runner.trace_set`): empty
    the memo first unless it already holds that set.

    ``run_many`` calls this before each run, its runs grouped by set, so a
    batch holds one set per process and generates each set once.  Traces
    generated outside a batch stay until a call names another set.
    """
    if _TRACE_CACHE.held != name:
        clear_trace_cache()
        _TRACE_CACHE.held = name


def generate_trace(
    model: AppModel,
    instructions: int,
    thread_id: int = 0,
    threads: int = 1,
    seed: int = 1,
    pc_base: int = 0,
    address_base: int = 0,
    program=None,
) -> Trace:
    """One thread's dynamic trace.

    ``pc_base``/``address_base`` keep multiprogrammed bundles disjoint in
    PC and address space; threads of one parallel app share PCs and the
    shared data region but have private footprints.

    ``program`` is a memoised zero-argument builder of
    ``build_static_program(model, seed)``.  A caller that generates
    several threads of one app passes the same builder to each, so the
    static program is built at most once, and only on a cache miss; None
    builds it here.
    """
    # Key on the full frozen model, not just its name: a model derived via
    # dataclasses.replace (sensitivity sweeps) must never alias the cached
    # traces of the original or results silently desynchronise.
    key = (model, instructions, thread_id, threads, seed, pc_base, address_base)
    cached = _TRACE_CACHE.get(key)
    if cached is not None:
        return cached

    bodies = build_static_program(model, seed) if program is None else program()
    rng = random.Random(f"dyn:{model.name}:{seed}:{thread_id}")

    shared_bytes = max(64 * 1024, model.footprint_bytes // 4)
    private_bytes = model.footprint_bytes
    shared_base = address_base
    private_base = address_base + shared_bytes + thread_id * private_bytes
    hot_base = private_base
    hot_bytes = model.hot_bytes
    warm_base = private_base + hot_bytes
    warm_bytes = model.warm_bytes
    cold_base = warm_base + warm_bytes
    cold_bytes = max(64 * 1024, private_bytes - hot_bytes - warm_bytes)
    if hot_bytes <= 0 or warm_bytes <= 0:
        # The inline draws below would never end on an empty region.
        raise ValueError(f"{model.name}: hot_bytes and warm_bytes must be positive")

    trace = Trace(name=f"{model.name}.t{thread_id}")
    trace.prewarm = [
        (hot_base, hot_bytes, 1),
        (warm_base, warm_bytes, 2),
    ]
    # Straight onto the typed columns: every value is in range by
    # construction, so Trace.append's per-field checks are skipped.  A
    # body's type, PC and dependency columns are the same on every
    # iteration, so each iteration copies them in whole, together with a
    # zero address and a zero mispredict column, and then writes in place
    # only what its loads, stores and branches draw (both built once per
    # body, by _body_plan).
    columns = (
        trace.itypes, trace.pcs, trace.dep1, trace.dep2, trace.addrs, trace.misp,
    )
    extends = [column.extend for column in columns]
    plans: list[tuple | None] = [None] * len(bodies)
    addrs = trace.addrs
    misp = trace.misp
    body_weights = [1.0 / (i + 1) for i in range(len(bodies))]
    total_w = sum(body_weights)
    body_weights = [w / total_w for w in body_weights]

    # Emission-time activation rates: calibrated so the long-run DRAM-bound
    # load rate is (1-hot_frac)(1-warm_frac) of all loads, split between
    # phase bursts and singleton misses per ``solo_frac``.
    loads_per_body = max(1, round(model.body_len * model.load_frac))
    cold_per_body = (1.0 - model.hot_frac) * (1.0 - model.warm_frac) * loads_per_body
    mean_burst = sum(len(b.burst_positions) for b in bodies) / len(bodies)
    activate_p = min(
        1.0, cold_per_body * (1.0 - model.solo_frac) / max(0.5, mean_burst)
    )
    solo_p = min(1.0, cold_per_body * model.solo_frac)
    if model.phase_duty is not None:
        activate_p = model.phase_duty
    if model.solo_rate is not None:
        solo_p = model.solo_rate
    # Per-thread load imbalance: spread threads evenly over the
    # [1-imbalance, 1+imbalance] intensity range (deterministic).
    if threads > 1 and model.thread_imbalance > 0:
        lo = 1.0 - model.thread_imbalance
        hi = 1.0 + model.thread_imbalance
        factor = lo + (hi - lo) * thread_id / (threads - 1)
        activate_p = min(1.0, activate_p * factor)
        solo_p = min(1.0, solo_p * factor)

    # (base, span, span.bit_length()) of each region addresses are drawn
    # from; the bit length feeds the inline draws below.
    regions = {
        name: (base, span, span.bit_length())
        for name, base, span in (
            ("hot", hot_base, hot_bytes),
            ("warm", warm_base, warm_bytes),
            ("cold", cold_base, cold_bytes),
            ("shared", shared_base, shared_bytes),
        )
    }
    warm_bits = regions["warm"][2]
    mispredict_rate = model.mispredict_rate
    stride = model.stream_stride
    getrandbits = rng.getrandbits
    rand = rng.random
    # Per-static-PC streaming positions; per-body gather stream positions
    # (bursts walk consecutive lines).
    stream_pos: dict[int, int] = {}
    LINE = 64
    body_stream_pos: dict[int, int] = {}

    n = 0
    while n < instructions:
        index = _weighted_index(rng, body_weights)
        body = bodies[index]
        plan = plans[index]
        if plan is None:
            plan = plans[index] = _body_plan(body, trace, pc_base, regions)
        static, inactive_draws, active_draws = plan
        length = len(body)
        iterations = rng.randint(6, 28)
        # Activation is per loop *visit*: a visit either sweeps DRAM-resident
        # data for all its iterations (a memory phase, hundreds of
        # instructions long) or runs entirely out of the caches.  Memory
        # phases from different threads overlap, producing the episodic
        # deep-queue contention real parallel apps exhibit between barriers.
        draws = active_draws if rand() < activate_p else inactive_draws
        for _ in range(iterations):
            offset = len(addrs)
            for extend, column in zip(extends, static):
                extend(column)
            gather = None
            # Draws in position order, so the random stream is the one a
            # walk over every instruction would consume.  A uniform draw
            # is Random.randrange(span)'s getrandbits rejection loop,
            # inline.
            for pos, kind, base, span, bits, ref in draws:
                if kind == _DRAW_UNIFORM:
                    r = getrandbits(bits)
                    while r >= span:
                        r = getrandbits(bits)
                    addrs[offset + pos] = base + (r & ~7)
                elif kind == _DRAW_BRANCH:
                    if rand() < mispredict_rate:
                        misp[offset + pos] = 1
                elif kind == _DRAW_SOLO:
                    # The singleton misses with probability solo_p and
                    # otherwise reads warm data.
                    if rand() >= solo_p:
                        base, span, bits = warm_base, warm_bytes, warm_bits
                    r = getrandbits(bits)
                    while r >= span:
                        r = getrandbits(bits)
                    addrs[offset + pos] = base + (r & ~7)
                elif kind == _DRAW_STREAM:
                    cursor = stream_pos.get(ref)
                    if cursor is None:
                        cursor = rng.randrange(span) & ~7
                    addrs[offset + pos] = base + cursor
                    stream_pos[ref] = (cursor + stride) % span
                else:
                    # Gather over two arrays (c[i] = f(a[i], b[i])): burst
                    # members alternate between two independent line
                    # streams, so the burst spreads over two channels and
                    # forms two concurrent row trains.
                    if gather is None:
                        half = span // 2
                        cursor = body_stream_pos.get(body.body_id)
                        if cursor is None:
                            cursor = rng.randrange(half) & ~(LINE - 1)
                        gather = (
                            base + cursor,
                            base + half + ((cursor * 7) % half & ~(LINE - 1)),
                        )
                        advance = (len(body.burst_order) // 2 + 1) * LINE
                        limit = max(LINE, half - advance)
                        body_stream_pos[body.body_id] = (cursor + advance) % limit
                    addrs[offset + pos] = gather[ref & 1] + (ref >> 1) * LINE
            n += length
            if n >= instructions:
                break

    _truncate(trace, instructions)
    _TRACE_CACHE[key] = trace
    return trace


#: What a drawing instruction draws (see _body_plan).
_DRAW_UNIFORM, _DRAW_BRANCH, _DRAW_SOLO, _DRAW_STREAM, _DRAW_GATHER = range(5)


def _body_plan(body: _Body, trace: Trace, pc_base: int, regions: dict):
    """One body's columns and draws for one trace.

    Returns ``(static, inactive, active)``: ``static`` holds the body's
    type, PC and dependency columns and a zero address and mispredict
    column, in the order of the trace's ``itypes, pcs, dep1, dep2, addrs,
    misp``; ``inactive`` and ``active`` list the draws of an iteration of
    a cache-resident and of a memory-phase visit.  A draw is ``(pos,
    kind, base, span, bits, ref)`` for each load, store and branch, in
    position order: a region to draw from (``_DRAW_UNIFORM``), a
    mispredict (``_DRAW_BRANCH``), the singleton miss
    (``_DRAW_SOLO``, its cold region), a static stream (``_DRAW_STREAM``,
    keyed by PC) or a gather burst member (``_DRAW_GATHER``, keyed by its
    index in the burst).
    """
    specs = body.specs
    static = (
        bytes(s.itype for s in specs),
        array(trace.pcs.typecode, [pc_base + s.pc for s in specs]),
        array(trace.dep1.typecode, [s.dep1 for s in specs]),
        array(trace.dep2.typecode, [s.dep2 for s in specs]),
        array(trace.addrs.typecode, [0]) * len(specs),
        bytes(len(specs)),
    )
    warm = regions["warm"]
    inactive = []
    active = []
    for pos, instr in enumerate(specs):
        itype = instr.itype
        if itype == BRANCH:
            draw = (pos, _DRAW_BRANCH, 0, 0, 0, None)
            inactive.append(draw)
            active.append(draw)
            continue
        if itype != LOAD and itype != STORE:
            continue
        far = regions["shared" if instr.shared else "cold"]
        k = body.burst_order.get(pos)
        if k is None:
            if pos == body.solo_position:
                draw = (pos, _DRAW_SOLO) + far + (None,)
            elif instr.klass == _HOT:
                draw = (pos, _DRAW_UNIFORM) + regions["hot"] + (None,)
            elif instr.klass == _WARM:
                draw = (pos, _DRAW_UNIFORM) + warm + (None,)
            elif instr.klass == _STREAM:
                draw = (pos, _DRAW_STREAM) + far + (instr.pc,)
            else:
                # Random and pointer-chase loads: uniform over the region
                # (the chase's serialising effect comes from its
                # dependency, not its address).
                draw = (pos, _DRAW_UNIFORM) + far + (None,)
            inactive.append(draw)
            active.append(draw)
            continue
        # Burst members read cached data on an inactive visit.
        inactive.append((pos, _DRAW_UNIFORM) + warm + (None,))
        if instr.klass == _STREAM:
            active.append((pos, _DRAW_GATHER) + far + (k,))
        else:
            active.append((pos, _DRAW_UNIFORM) + far + (None,))
    return static, inactive, active


def _weighted_index(rng: random.Random, weights) -> int:
    u = rng.random()
    acc = 0.0
    for i, w in enumerate(weights):
        acc += w
        if u <= acc:
            return i
    return len(weights) - 1


def _truncate(trace: Trace, length: int) -> None:
    for field in ("itypes", "pcs", "addrs", "dep1", "dep2", "misp"):
        lst = getattr(trace, field)
        del lst[length:]
