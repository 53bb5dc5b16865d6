"""Parallel, disk-cached experiment engine.

One simulation = one :class:`RunSpec`.  ``run_many`` deduplicates specs,
satisfies what it can from the on-disk result cache, and fans the misses
out over a pool of worker processes; ``run_one`` executes a single spec
in-process.  Every run records wall-clock observability on its result
(``SimResult.wall_seconds`` / ``cycles_per_second``) and in the module's
``last_metrics`` list.

Cache keys are content hashes: the canonical JSON of the spec (workload,
scheduler and kwargs, provider spec, full machine config, scale, slot)
plus a hash of the simulator's own source files, so editing the model
invalidates every cached result automatically.  The telemetry
configuration fingerprint (sampling interval, trace on/off and capacity)
is part of the key too: a run cached without sampling must not satisfy a
request that expects time-series on the result.  Since both loop
implementations (naive, batched) are bit-identical, the engine
selection (``RunSpec.engine`` / ``REPRO_ENGINE``) is deliberately *not*
part of the key.

Environment knobs:

* ``REPRO_CACHE_DIR``     — cache directory (default ``~/.cache/repro-sim``);
* ``REPRO_NO_CACHE=1``    — bypass the disk cache entirely;
* ``REPRO_JOBS``          — worker processes for ``run_many`` (default: CPUs);
* ``REPRO_CODE_VERSION``  — override the code-version hash (tests);
* ``REPRO_RUN_LOG``       — append one JSON line of metrics per run.
"""

from __future__ import annotations

import contextlib
import dataclasses
import enum
import hashlib
import json
import os
import pickle
from dataclasses import dataclass, field
from pathlib import Path

from repro.config import DEFAULT_SCALE, SimScale, SystemConfig
from repro.sim.stats import SimResult
from repro.telemetry import config_fingerprint as _telemetry_fingerprint
from repro.util import atomicio

#: Per-run observability records (append-only): dicts with label, key,
#: source ("run" | "disk"), wall_s, cycles, and cycles_per_sec.  Clear
#: with :func:`clear_metrics` before a batch you want to inspect.
last_metrics: list[dict] = []


def clear_metrics() -> None:
    last_metrics.clear()


class UnportableSpec(ValueError):
    """The spec contains live objects (callables) that cannot be hashed or
    shipped to a worker process; it must run inline and uncached."""


@dataclass
class RunSpec:
    """Everything needed to reproduce one simulation run.

    ``kind`` says where the per-core traces come from and ``workload``
    names them: ``parallel`` (a Table 2 app), ``bundle`` (a Table 4
    bundle), ``alone`` (app ``slot`` of a bundle, the other cores idle)
    or ``scenario`` (one hand-built role per core, such as ``"LS"``:
    :mod:`repro.workloads.scenario`).  One body runs every kind
    (:func:`repro.sim.runner.run_spec`).

    ``engine`` pins the loop implementation (``naive``/``batched``)
    for this run; ``None`` defers to ``REPRO_ENGINE`` and the default.
    It is *not* part of the cache key: both engines produce
    bit-identical results, so they share one cache slot.
    """

    kind: str  # "parallel" | "bundle" | "alone" | "scenario"
    workload: str
    scheduler: str = "fr-fcfs"
    provider_spec: object = None
    config: SystemConfig | None = None
    scale: SimScale = field(default_factory=lambda: DEFAULT_SCALE)
    scheduler_kwargs: dict | None = None
    slot: int | None = None
    label: str | None = None
    engine: str | None = None


# --------------------------------------------------------------- cache keys


def _canon(value):
    """Canonical JSON-ready form of a spec component (deterministic)."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            "__dataclass__": type(value).__name__,
            **{
                f.name: _canon(getattr(value, f.name))
                for f in dataclasses.fields(value)
            },
        }
    if isinstance(value, enum.Enum):
        return f"{type(value).__name__}.{value.name}"
    if isinstance(value, dict):
        return {
            str(k): _canon(v)
            for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))
        }
    if isinstance(value, (list, tuple)):
        return [_canon(v) for v in value]
    if value is None or isinstance(value, (str, int, float, bool)):
        return value
    raise UnportableSpec(f"cannot canonicalise {value!r} for hashing")


_CODE_VERSION_CACHE: dict[str | None, str] = {}


def code_version() -> str:
    """Hash of the simulator's own source, part of every cache key."""
    override = os.environ.get("REPRO_CODE_VERSION")
    cached = _CODE_VERSION_CACHE.get(override)
    if cached is not None:
        return cached
    if override:
        version = override
    else:
        root = os.path.dirname(os.path.dirname(os.path.realpath(__file__)))
        version = _source_digest(root)  # src/repro
    _CODE_VERSION_CACHE[override] = version
    return version


def _source_digest(root: str) -> str:
    """SHA-256 prefix over every source file under ``root`` (``*.py``,
    and ``*.c`` for the compiled kernels): each file's relative
    path, then its bytes, files in the order of their path components
    (the order of sorted ``Path.rglob`` paths)."""
    files = []
    pending = [()]
    while pending:
        parts = pending.pop()
        with os.scandir(os.path.join(root, *parts)) as entries:
            for entry in entries:
                if entry.is_dir(follow_symlinks=False):
                    pending.append(parts + (entry.name,))
                elif entry.name.endswith((".py", ".c")):
                    files.append(parts + (entry.name,))
    digest = hashlib.sha256()
    for parts in sorted(files):
        digest.update("/".join(parts).encode())
        # Unbuffered: each file is read whole, and this digest is about
        # half of a warm pass (a run read from the result cache).
        with open(os.path.join(root, *parts), "rb", buffering=0) as fh:
            digest.update(fh.read())
    return digest.hexdigest()[:16]


def spec_key(spec: RunSpec) -> str:
    """Content hash identifying a spec's result.

    Raises :class:`UnportableSpec` when the spec embeds live objects (a
    callable provider spec, non-serialisable scheduler kwargs).
    """
    payload = json.dumps(
        {
            "kind": spec.kind,
            "workload": spec.workload,
            "scheduler": spec.scheduler,
            "provider_spec": _canon(spec.provider_spec),
            "config": _canon(spec.config),
            "scale": _canon(spec.scale),
            "scheduler_kwargs": _canon(spec.scheduler_kwargs or {}),
            "slot": spec.slot,
            "telemetry": _canon(_telemetry_fingerprint()),
            "code": code_version(),
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode()).hexdigest()


# --------------------------------------------------------------- disk cache


def cache_dir() -> Path:
    env = os.environ.get("REPRO_CACHE_DIR")
    return Path(env) if env else Path.home() / ".cache" / "repro-sim"


def _cache_enabled(cache: bool | None) -> bool:
    if cache is not None:
        return cache
    return os.environ.get("REPRO_NO_CACHE", "") in ("", "0")


def cache_path(key: str) -> Path:
    return cache_dir() / f"{key}.pkl"


def load_cached(key: str) -> SimResult | None:
    path = cache_path(key)
    try:
        with open(path, "rb") as fh:
            result = pickle.load(fh)
    except Exception:
        return None  # missing or corrupt entry: treat as a miss
    return result if isinstance(result, SimResult) else None


def store_cached(key: str, result: SimResult) -> None:
    """Publish one result into the shared cache slot for ``key``.

    Concurrent sweeps (and ``run_many`` pools) race the same content
    hash; the atomic replace means the slot always holds one complete
    pickle — and since the payload is a pure function of the key, the
    bytes are identical whichever writer wins.

    A run that hit the cycle cap (``hit_max_cycles``) is never stored:
    it is a failure, not a result, and a cached one would be replayed
    into every later figure.  Its caller still gets the flagged result.
    """
    if result.hit_max_cycles:
        return
    directory = cache_dir()
    directory.mkdir(parents=True, exist_ok=True)
    atomicio.write_bytes(cache_path(key), _pickle_result(result))


def clear_disk_cache() -> int:
    """Delete every cached result; returns the number removed."""
    removed = 0
    directory = cache_dir()
    if directory.is_dir():
        for path in directory.glob("*.pkl"):
            try:
                path.unlink()
                removed += 1
            # a locked file just stays behind, uncounted
            # repro-lint: disable=EXC002 best-effort cleanup
            except OSError:
                pass
    return removed


def _pickle_result(result: SimResult) -> bytes:
    """Pickle a result, shedding unpicklable run-time attachments."""
    try:
        return pickle.dumps(result)
    except Exception:
        return pickle.dumps(dataclasses.replace(result, providers=[]))


# ----------------------------------------------------------------- running


@contextlib.contextmanager
def exported(spec: RunSpec):
    """Export the spec's ``engine`` as ``REPRO_ENGINE`` for the duration
    of the block, then restore it."""
    if spec.engine is None:
        yield
        return
    saved = os.environ.get("REPRO_ENGINE")
    os.environ["REPRO_ENGINE"] = spec.engine
    try:
        yield
    finally:
        if saved is None:
            os.environ.pop("REPRO_ENGINE", None)
        else:
            os.environ["REPRO_ENGINE"] = saved


def run_one(spec: RunSpec) -> SimResult:
    """Execute one spec in-process (no caching), through the runner's one
    body (:func:`repro.sim.runner.run_spec`).

    A spec with ``engine`` set exports it for the duration of the run
    (:func:`exported`), so the request survives the trip through worker
    processes.
    """
    from repro.sim.runner import run_spec

    with exported(spec):
        return run_spec(spec)


def run_one_cached(spec: RunSpec, cache: bool | None = None) -> SimResult:
    """``run_one`` behind the disk cache: a serial batch of one
    (:func:`run_many`)."""
    return run_many([spec], jobs=1, cache=cache)[0]


def _resolve_jobs(jobs: int | None) -> int:
    if jobs is None:
        env = os.environ.get("REPRO_JOBS")
        jobs = int(env) if env else (os.cpu_count() or 1)
    return max(1, jobs)


def _by_trace_set(tasks) -> list:
    """``(index, spec)`` tasks grouped by trace set, sets in order of
    first appearance, tasks in their order within each set."""
    from repro.sim.runner import trace_set

    groups: dict[tuple, list] = {}
    for task in tasks:
        groups.setdefault(trace_set(task[1]), []).append(task)
    return [task for group in groups.values() for task in group]


def _run_task(task) -> tuple[int, SimResult]:
    """Run one ``(index, spec)`` task, keeping only its trace set in this
    process's trace memo."""
    from repro.sim.runner import trace_set
    from repro.workloads.synthetic import hold_trace_set

    index, spec = task
    hold_trace_set(trace_set(spec))
    return index, run_one(spec)


def _pool_entry(task) -> tuple[int, SimResult]:
    index, result = _run_task(task)
    return index, pickle.loads(_pickle_result(result))


def run_many(
    specs, jobs: int | None = None, cache: bool | None = None
) -> list[SimResult]:
    """Run every spec, in parallel, deduplicated, through the disk cache.

    Returns results aligned with ``specs``.  Identical specs are simulated
    once; cache hits cost no simulation at all.  Specs that cannot be
    hashed/pickled (callable provider specs) run inline and uncached.

    Simulations run set by set (:func:`repro.sim.runner.trace_set` names
    a spec's trace set), sets in order of first appearance, and each
    process running them keeps only the current run's set in its trace
    memo (:func:`repro.workloads.synthetic.hold_trace_set`).  A batch
    thus holds one set per process and, as pool workers take tasks in
    list order, generates each set at most once per process.  Results,
    ``last_metrics`` and the run log follow ``specs``: one record per
    cache hit, simulated spec or unportable spec, at the position of its
    first occurrence.  A spec to simulate that the runner cannot run (an
    unknown kind, an ``alone`` spec without ``slot``, a scenario whose
    roles do not fit the machine) raises ``ValueError`` before any
    simulation starts.
    """
    specs = list(specs)
    use_cache = _cache_enabled(cache)
    results: list[SimResult | None] = [None] * len(specs)
    records: list[dict | None] = [None] * len(specs)
    pending: dict[str, list[int]] = {}
    inline: list[int] = []

    for i, spec in enumerate(specs):
        try:
            key = spec_key(spec)
        except UnportableSpec:
            inline.append(i)
            continue
        if key in pending:
            pending[key].append(i)
            continue
        if use_cache:
            hit = load_cached(key)
            if hit is not None:
                results[i] = hit
                records[i] = _metric(spec, key, hit, "disk")
                continue
        pending[key] = [i]

    portable = [(idxs[0], specs[idxs[0]]) for idxs in pending.values()]
    unportable = [(i, specs[i]) for i in inline]
    fresh: dict[int, SimResult] = {}
    jobs = _resolve_jobs(jobs)
    context = None
    if len(portable) > 1 and jobs > 1:
        import multiprocessing

        try:
            context = multiprocessing.get_context("fork")
        except ValueError:  # no fork on this platform: run serially
            context = None
    # Both orders are made before anything runs, so a spec that names no
    # runnable kind raises before any simulation starts.
    if context is not None:
        pooled, serial = _by_trace_set(portable), _by_trace_set(unportable)
    else:
        pooled, serial = [], _by_trace_set(portable + unportable)
    if pooled:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(
            max_workers=min(jobs, len(pooled)), mp_context=context
        ) as pool:
            fresh.update(pool.map(_pool_entry, pooled))
    fresh.update(map(_run_task, serial))

    for key, indices in pending.items():
        result = fresh[indices[0]]
        records[indices[0]] = _metric(specs[indices[0]], key, result, "run")
        if use_cache:
            store_cached(key, result)
        for i in indices:
            results[i] = result
    for i in inline:
        results[i] = fresh[i]
        records[i] = _metric(specs[i], None, fresh[i], "run")

    metrics = [record for record in records if record is not None]
    last_metrics.extend(metrics)
    _write_run_log(metrics)
    return results


# ------------------------------------------------------- determinism checks


def verify_determinism(spec: RunSpec, subprocess: bool = True) -> dict:
    """Run ``spec`` on every engine and compare determinism hash-chains.

    The reference run uses the spec's engine (default: the resolved
    session engine, normally ``naive``) in-process; it is compared
    against (a) the other loop implementation in-process and (b) the
    reference engine in a freshly forked worker process.
    Returns a report dict: ``ok``, the reference ``chain`` digest, and a
    ``runs`` list with each comparison's verdict and — on divergence —
    the earliest diverging checkpoint from
    :func:`repro.analysis.detchain.first_divergence`.
    """
    from repro.analysis.detchain import first_divergence
    from repro.sim.stats import result_fingerprint
    from repro.sim.system import ENGINES, System

    ref_engine = System.resolve_engine(spec.engine)
    reference = run_one(spec)
    comparisons: list[tuple[str, SimResult]] = []

    names = {
        "naive": "naive cycle-by-cycle loop",
        "batched": "batched (windowed) loop",
    }
    for engine in ENGINES:
        if engine == ref_engine:
            continue
        comparisons.append(
            (names[engine], run_one(dataclasses.replace(spec, engine=engine)))
        )

    if subprocess:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        try:
            context = multiprocessing.get_context("fork")
        except ValueError:
            context = None
        if context is not None:
            with ProcessPoolExecutor(max_workers=1, mp_context=context) as pool:
                comparisons.append(
                    ("fresh subprocess", pool.submit(run_one, spec).result())
                )

    report = {
        "label": reference.label,
        "engine": ref_engine,
        "chain": reference.det_chain,
        "cycles": reference.cycles,
        "ok": True,
        "runs": [],
    }
    for name, other in comparisons:
        matches = result_fingerprint(reference) == result_fingerprint(other)
        entry = {"name": name, "ok": matches, "chain": other.det_chain}
        if not matches:
            report["ok"] = False
            entry["first_divergence"] = first_divergence(
                reference.det_checkpoints, other.det_checkpoints
            )
        report["runs"].append(entry)
    return report


# ------------------------------------------------------------ observability


def _metric(spec: RunSpec, key: str | None, result: SimResult, source: str):
    return {
        "label": result.label or spec.workload,
        "key": key,
        "source": source,
        "wall_s": round(result.wall_seconds, 6),
        "cycles": result.cycles,
        "cycles_per_sec": round(result.cycles_per_second, 1),
    }


def _write_run_log(metrics) -> None:
    """Append per-run metrics to the shared ``REPRO_RUN_LOG`` JSONL file.

    Every worker of a concurrent sweep appends to the same log, so each
    record must land as a single ``O_APPEND`` write — a buffered
    append-mode file handle can flush mid-record and interleave partial
    lines with another process's writes.
    """
    path = os.environ.get("REPRO_RUN_LOG")
    if not path or not metrics:
        return
    try:
        atomicio.append_jsonl(path, metrics)
    # an unwritable metrics log must never fail the simulation it records
    # repro-lint: disable=EXC002 observability only
    except OSError:
        pass
