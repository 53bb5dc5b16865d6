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
            if not dep_assigned and pos > 0 and rng.random() < 0.75:
                dist = rng.randint(1, min(pos, 10))
                if (pos - dist) not in burst_positions:
                    instr.dep1 = dist
            if pos > 1 and rng.random() < 0.15:
                dist = rng.randint(1, min(pos, 16))
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
    import math

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

    # Per-static-PC streaming positions.
    stream_pos: dict[int, int] = {}
    stride = model.stream_stride

    trace = Trace(name=f"{model.name}.t{thread_id}")
    trace.prewarm = [
        (hot_base, hot_bytes, 1),
        (warm_base, warm_bytes, 2),
    ]
    # Straight onto the typed columns: every value is in range by
    # construction, so Trace.append's per-field checks are skipped.  A
    # body's type, PC and dependency columns are the same on every
    # iteration, so each iteration copies them in whole (built once per
    # body, below); only addresses and mispredicts are drawn per instance.
    extend_static = (
        trace.itypes.extend, trace.pcs.extend,
        trace.dep1.extend, trace.dep2.extend,
    )
    static_columns: list[tuple | None] = [None] * len(bodies)
    add_addr = trace.addrs.append
    add_misp = trace.misp.append
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

    # Per-body gather stream positions (bursts walk consecutive lines).
    LINE = 64
    body_stream_pos: dict[int, int] = {}

    n = 0
    while n < instructions:
        index = _weighted_index(rng, body_weights)
        body = bodies[index]
        specs = body.specs
        static = static_columns[index]
        if static is None:
            static = static_columns[index] = (
                bytes(s.itype for s in specs),
                array(trace.pcs.typecode, [pc_base + s.pc for s in specs]),
                array(trace.dep1.typecode, [s.dep1 for s in specs]),
                array(trace.dep2.typecode, [s.dep2 for s in specs]),
            )
        burst = body.burst_order
        burst_size = len(burst)
        iterations = rng.randint(6, 28)
        # Activation is per loop *visit*: a visit either sweeps DRAM-resident
        # data for all its iterations (a memory phase, hundreds of
        # instructions long) or runs entirely out of the caches.  Memory
        # phases from different threads overlap, producing the episodic
        # deep-queue contention real parallel apps exhibit between barriers.
        active = rng.random() < activate_p
        for _ in range(iterations):
            burst_base = None
            for extend, column in zip(extend_static, static):
                extend(column)
            for pos, instr in enumerate(specs):
                itype = instr.itype
                addr = 0
                misp = False
                if itype == LOAD or itype == STORE:
                    k = burst.get(pos)
                    if k is None:
                        if pos == body.solo_position:
                            if rng.random() < solo_p:
                                base, span = (
                                    (shared_base, shared_bytes)
                                    if instr.shared
                                    else (cold_base, cold_bytes)
                                )
                                addr = base + (rng.randrange(span) & ~7)
                            else:
                                addr = warm_base + (rng.randrange(warm_bytes) & ~7)
                        else:
                            addr = _gen_address(
                                instr, rng, stream_pos,
                                hot_base, hot_bytes, warm_base, warm_bytes,
                                cold_base, cold_bytes,
                                shared_base, shared_bytes, stride,
                            )
                    elif not active:
                        # Inactive iteration: the burst reads cached data.
                        addr = warm_base + (rng.randrange(warm_bytes) & ~7)
                    elif instr.klass == _STREAM:
                        # Gather over two arrays (c[i] = f(a[i], b[i])):
                        # burst members alternate between two independent
                        # line streams, so the burst spreads over two
                        # channels and forms two concurrent row trains.
                        if burst_base is None:
                            base, span = (
                                (shared_base, shared_bytes)
                                if instr.shared
                                else (cold_base, cold_bytes)
                            )
                            half = span // 2
                            cursor = body_stream_pos.get(body.body_id)
                            if cursor is None:
                                cursor = rng.randrange(half) & ~(LINE - 1)
                            burst_base = (
                                base + cursor,
                                base + half + ((cursor * 7) % half & ~(LINE - 1)),
                            )
                            advance = (burst_size // 2 + 1) * LINE
                            limit = max(LINE, half - advance)
                            body_stream_pos[body.body_id] = (cursor + advance) % limit
                        addr = burst_base[k & 1] + (k >> 1) * LINE
                    else:
                        # Random / pointer-chase burst member.
                        base, span = (
                            (shared_base, shared_bytes)
                            if instr.shared
                            else (cold_base, cold_bytes)
                        )
                        addr = base + (rng.randrange(span) & ~7)
                elif itype == BRANCH:
                    misp = rng.random() < model.mispredict_rate
                add_addr(addr)
                add_misp(misp)
            n += len(specs)
            if n >= instructions:
                break

    _truncate(trace, instructions)
    _TRACE_CACHE[key] = trace
    return trace


def _weighted_index(rng: random.Random, weights) -> int:
    u = rng.random()
    acc = 0.0
    for i, w in enumerate(weights):
        acc += w
        if u <= acc:
            return i
    return len(weights) - 1


def _gen_address(
    instr, rng, stream_pos,
    hot_base, hot_bytes, warm_base, warm_bytes,
    cold_base, cold_bytes,
    shared_base, shared_bytes, stride,
):
    klass = instr.klass
    if klass == _HOT:
        return hot_base + (rng.randrange(hot_bytes) & ~7)
    if klass == _WARM:
        return warm_base + (rng.randrange(warm_bytes) & ~7)
    if instr.shared:
        base, span = shared_base, shared_bytes
    else:
        base, span = cold_base, cold_bytes
    if klass == _STREAM:
        pos = stream_pos.get(instr.pc)
        if pos is None:
            pos = rng.randrange(span) & ~7
        addr = base + pos
        stream_pos[instr.pc] = (pos + stride) % span
        return addr
    # _RANDOM and _CHASE: uniform over the region (the chase's serialising
    # effect comes from its dependency, not its address).
    return base + (rng.randrange(span) & ~7)


def _truncate(trace: Trace, length: int) -> None:
    for field in ("itypes", "pcs", "addrs", "dep1", "dep2", "misp"):
        lst = getattr(trace, field)
        del lst[length:]
