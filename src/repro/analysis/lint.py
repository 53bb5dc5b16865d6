"""Custom AST lint pass for simulator-specific hazards.

Generic linters cannot know that ``random.random()`` inside a scheduler
silently poisons every cached experiment, or that a float creeping into a
cycle counter breaks bit-identical fast-forwarding.  This pass encodes
the project's correctness contracts as machine-checked rules over the
Python AST of ``src/repro``:

=========  ================================================================
DET001     module-global ``random`` (or ``numpy.random``) use — unseeded
           and process-global, so results depend on import order
DET002     wall-clock reads (``time.time`` et al.) — host time must never
           reach simulated state; ``repro.util.hostclock`` is the single
           sanctioned API (the only allowlisted module)
DET003     iteration over a ``set`` — Python set order varies across
           processes (PYTHONHASHSEED), so iteration order is nondeterministic
DET004     iteration over a process-ordered mapping (``os.environ``,
           ``globals()``/``locals()``/``vars()``, ``__dict__`` views) —
           their order reflects process history, not simulated events
ARG001     mutable default argument — evaluated once at definition time
           and shared across calls, leaking state between runs
FLT001     float arithmetic assigned to a cycle-counter-like name —
           cycles are exact integers; floats drift and break bit-identity
IO001      raw ``os.replace``/``os.rename`` or an append-mode ``open()``
           — shared artifacts are written only through
           ``repro.util.atomicio`` (the only allowlisted module)
EXC001     bare ``except:`` — swallows ``KeyboardInterrupt`` and hides bugs
EXC002     silent exception handler (body is only ``pass``/``...``) —
           drops errors without a trace
PERF001    list/deque allocated inside a loop of a per-cycle hot method —
           the allocation cost is paid millions of times per run
PERF002    the same ``name.attr`` chain loaded repeatedly in one hot
           loop — bind it to a local before the loop
PERF003    dict/set constructed inside a loop of a per-cycle hot method
=========  ================================================================

Suppression: append ``# repro-lint: disable=<rule>[,<rule>...]`` (or
``disable=all``) to the offending line, or put it on its own line
directly above; ``# repro-lint: disable-file=<rule>[,...]`` in the
module header silences a rule file-wide.  Anything after the rule list is
treated as rationale.  Suppressions are counted and reported so they
stay auditable, and a suppression naming a rule id that no pass
registers is itself an error (SUP001) — a typo'd suppression would
otherwise silently stop suppressing.  The grammar is shared with the
semantic analyzer (see :mod:`repro.analysis.suppress`).

CLI: ``python -m repro lint [paths...]``; exits nonzero when any
unsuppressed finding remains.
"""

from __future__ import annotations

import argparse
import ast
import sys
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis import suppress

# --------------------------------------------------------------- findings


@dataclass(frozen=True)
class Finding:
    """One rule violation at a source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col + 1}: {self.rule} {self.message}"


@dataclass
class LintReport:
    """Outcome of linting a set of files."""

    findings: list[Finding] = field(default_factory=list)
    suppressed: list[Finding] = field(default_factory=list)
    files: int = 0
    errors: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.findings and not self.errors


# ------------------------------------------------------------- rule base


class Rule:
    """One lint rule: an id, a one-line hazard description, and a check."""

    id: str = ""
    title: str = ""

    def check_module(self, tree: ast.Module, path: str) -> list[Finding]:
        raise NotImplementedError

    def _finding(self, path: str, node: ast.AST, message: str) -> Finding:
        return Finding(
            rule=self.id,
            path=path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
        )


def _module_aliases(tree: ast.Module, module: str) -> set[str]:
    """Names the given top-level module is importable under in this file."""
    aliases = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for item in node.names:
                if item.name == module or item.name.startswith(module + "."):
                    aliases.add((item.asname or item.name).split(".")[0])
    return aliases


def _from_imports(tree: ast.Module, module: str, names: set[str]) -> dict[str, ast.AST]:
    """``from module import name`` bindings of interest: local name -> node."""
    bound: dict[str, ast.AST] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == module:
            for item in node.names:
                if item.name in names:
                    bound[item.asname or item.name] = node
    return bound


def _is_module(path: str, suffix: str) -> bool:
    """Is ``path`` the source file ``suffix`` (e.g. ``util/hostclock.py``)?"""
    return str(path).replace("\\", "/").endswith(suffix)


def _attr_chain(node: ast.AST) -> list[str]:
    """``a.b.c`` -> ["a", "b", "c"]; empty when not a pure name chain."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        parts.reverse()
        return parts
    return []


# ---------------------------------------------------------------- rules


class UnseededRandomRule(Rule):
    """DET001: module-global ``random`` use.

    The ``random`` module's global generator is seeded from the OS, so any
    call on it makes simulation results depend on process history.  All
    randomness must flow through a ``random.Random(seed)`` (or seeded
    numpy ``Generator``) threaded through constructors.
    """

    id = "DET001"
    title = "module-global random use (unseeded nondeterminism)"

    _GLOBAL_FNS = {
        "random", "randint", "randrange", "choice", "choices", "shuffle",
        "sample", "uniform", "gauss", "seed", "getrandbits", "betavariate",
        "expovariate", "normalvariate", "triangular", "vonmisesvariate",
    }

    def check_module(self, tree, path):
        findings = []
        aliases = _module_aliases(tree, "random")
        numpy_aliases = _module_aliases(tree, "numpy")
        for name, node in _from_imports(tree, "random", self._GLOBAL_FNS).items():
            findings.append(self._finding(
                path, node,
                f"importing {name!r} from random binds the process-global "
                f"generator; construct a seeded random.Random instead",
            ))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            chain = _attr_chain(node.func)
            if len(chain) == 2 and chain[0] in aliases and chain[1] in self._GLOBAL_FNS:
                findings.append(self._finding(
                    path, node,
                    f"call to module-global random.{chain[1]}(); thread a "
                    f"seeded random.Random through the constructor instead",
                ))
            elif (
                len(chain) == 3
                and chain[0] in numpy_aliases
                and chain[1] == "random"
                and chain[2] != "default_rng"
            ):
                findings.append(self._finding(
                    path, node,
                    f"call to numpy's global {'.'.join(chain)}(); use a "
                    f"seeded numpy.random.default_rng(seed) Generator",
                ))
        return findings


class WallClockRule(Rule):
    """DET002: host wall-clock reads in simulator code.

    Host time must never influence simulated state or recorded results
    beyond explicitly-labelled observability fields.  Legitimate
    host-side measurement goes through the single sanctioned API,
    :mod:`repro.util.hostclock` — the only module this rule allowlists —
    so every wall-clock consumer is auditable at that one boundary.
    A raw ``time.*`` read anywhere else still fires and needs a
    ``# repro-lint: disable=DET002`` suppression with rationale.
    """

    id = "DET002"
    title = "wall-clock read in simulation code"

    _TIME_FNS = {"time", "time_ns", "perf_counter", "perf_counter_ns",
                 "monotonic", "monotonic_ns", "process_time"}
    _DATETIME_FNS = {"now", "utcnow", "today"}

    def check_module(self, tree, path):
        if _is_module(path, "util/hostclock.py"):
            return []  # the one module allowed to read the host clock
        findings = []
        time_aliases = _module_aliases(tree, "time")
        dt_aliases = _module_aliases(tree, "datetime")
        for name, node in _from_imports(tree, "time", self._TIME_FNS).items():
            findings.append(self._finding(
                path, node, f"importing wall-clock {name!r} from time"))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            chain = _attr_chain(node.func)
            if len(chain) == 2 and chain[0] in time_aliases and chain[1] in self._TIME_FNS:
                findings.append(self._finding(
                    path, node,
                    f"wall-clock call time.{chain[1]}(); simulated time must "
                    f"come from the cycle counter",
                ))
            elif (
                len(chain) >= 2
                and chain[0] in dt_aliases
                and chain[-1] in self._DATETIME_FNS
            ):
                findings.append(self._finding(
                    path, node, f"wall-clock call {'.'.join(chain)}()"))
        return findings


class SetIterationRule(Rule):
    """DET003: iterating a ``set``.

    Set iteration order depends on insertion history and element hashes
    (strings vary with PYTHONHASHSEED), so any simulation decision made
    while iterating a set can differ across processes.  Iterate
    ``sorted(the_set)`` or keep an ordered structure instead.
    """

    id = "DET003"
    title = "iteration over a set (order is not deterministic)"

    @staticmethod
    def _is_set_expr(node, local_sets: set[str]) -> str | None:
        if isinstance(node, ast.Set):
            return "a set literal"
        if isinstance(node, ast.SetComp):
            return "a set comprehension"
        if isinstance(node, ast.Call):
            chain = _attr_chain(node.func)
            if chain in (["set"], ["frozenset"]):
                return f"{chain[0]}(...)"
            if (
                len(chain) >= 2
                and chain[-1] in {"union", "intersection", "difference",
                                  "symmetric_difference"}
                and chain[0] in local_sets
            ):
                return f"set method .{chain[-1]}()"
        if isinstance(node, ast.Name) and node.id in local_sets:
            return f"the set {node.id!r}"
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            for side in (node.left, node.right):
                if isinstance(side, ast.Name) and side.id in local_sets:
                    return "a set expression"
        return None

    def _check_scope(self, scope, path, findings):
        # Names bound to set expressions anywhere in this scope body
        # (excluding nested functions, which get their own pass).
        local_sets: set[str] = set()
        nested = []
        for node in ast.walk(scope):
            if node is not scope and isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                nested.append(node)
        in_nested = set()
        for fn in nested:
            for node in ast.walk(fn):
                in_nested.add(id(node))
        for node in ast.walk(scope):
            if id(node) in in_nested:
                continue
            if isinstance(node, ast.Assign) and self._is_set_expr(node.value, set()):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        local_sets.add(target.id)
        for node in ast.walk(scope):
            if id(node) in in_nested:
                continue
            iters = []
            if isinstance(node, ast.For):
                iters.append(node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                   ast.GeneratorExp)):
                iters.extend(gen.iter for gen in node.generators)
            for it in iters:
                what = self._is_set_expr(it, local_sets)
                if what:
                    findings.append(self._finding(
                        path, it,
                        f"iterating {what}: set order varies across "
                        f"processes; iterate sorted(...) instead",
                    ))

    def check_module(self, tree, path):
        findings: list[Finding] = []
        scopes = [tree] + [
            node for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        for scope in scopes:
            self._check_scope(scope, path, findings)
        # Module+function nesting means a `for` inside a function is seen
        # twice (once per scope); deduplicate by location.
        seen = set()
        unique = []
        for f in findings:
            key = (f.line, f.col)
            if key not in seen:
                seen.add(key)
                unique.append(f)
        return unique


class DictOrderRule(Rule):
    """DET004: iteration over a mapping whose order is process-dependent.

    Python dicts preserve insertion order, so iterating a dict the
    simulation built is deterministic.  Some mappings' order instead
    reflects *process* history: ``os.environ`` (inherited environment
    block), ``globals()``/``locals()``/``vars()`` (definition and call
    history), and ``__dict__`` views (attribute-creation order, which
    shifts whenever a construction path changes).  A simulation decision
    or recorded ordering derived from one of these can differ across
    hosts and refactors.  Iterate ``sorted(...)`` instead.
    """

    id = "DET004"
    title = "iteration over a process-ordered mapping"

    _VIEWS = {"items", "keys", "values"}

    @classmethod
    def _base_expr(cls, node):
        """Unwrap ``expr.items()/.keys()/.values()`` to ``expr``."""
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in cls._VIEWS
            and not node.args
        ):
            return node.func.value
        return node

    def _offender(self, node, os_aliases, environ_names) -> str | None:
        base = self._base_expr(node)
        if isinstance(base, ast.Call):
            chain = _attr_chain(base.func)
            if chain in (["globals"], ["locals"], ["vars"]):
                return f"{chain[0]}()"
            return None
        chain = _attr_chain(base)
        if not chain:
            return None
        if chain[-1] == "__dict__":
            return ".".join(chain)
        if len(chain) == 2 and chain[0] in os_aliases and chain[1] == "environ":
            return "os.environ"
        if len(chain) == 1 and chain[0] in environ_names:
            return "os.environ"
        return None

    def check_module(self, tree, path):
        findings = []
        os_aliases = _module_aliases(tree, "os")
        environ_names = set(_from_imports(tree, "os", {"environ"}))
        for node in ast.walk(tree):
            iters = []
            if isinstance(node, ast.For):
                iters.append(node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                   ast.GeneratorExp)):
                iters.extend(gen.iter for gen in node.generators)
            for it in iters:
                what = self._offender(it, os_aliases, environ_names)
                if what:
                    findings.append(self._finding(
                        path, it,
                        f"iterating {what}: its order reflects process "
                        f"history, not simulated events; iterate "
                        f"sorted(...) instead",
                    ))
        return findings


class MutableDefaultRule(Rule):
    """ARG001: mutable default argument.

    A default value is evaluated once, at function definition, and the
    same object is shared by every call that omits the argument.  A
    default list/dict/set that a simulation component then mutates
    carries state from one run into the next — results depend on call
    history, which poisons cached experiments.  Default to ``None`` and
    construct the container inside the body.
    """

    id = "ARG001"
    title = "mutable default argument"

    _MUTABLE_CALLS = {"list", "dict", "set", "bytearray", "deque",
                      "defaultdict", "Counter", "OrderedDict"}

    @classmethod
    def _is_mutable(cls, node) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                             ast.SetComp, ast.DictComp)):
            return True
        if isinstance(node, ast.Call):
            chain = _attr_chain(node.func)
            return bool(chain) and chain[-1] in cls._MUTABLE_CALLS
        return False

    def check_module(self, tree, path):
        findings = []
        for node in ast.walk(tree):
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                continue
            name = getattr(node, "name", "<lambda>")
            defaults = list(node.args.defaults) + list(node.args.kw_defaults)
            for default in defaults:
                if default is not None and self._is_mutable(default):
                    findings.append(self._finding(
                        path, default,
                        f"mutable default in {name}(): evaluated once and "
                        f"shared across calls; default to None and build "
                        f"the container inside the body",
                    ))
        return findings


class FloatCycleRule(Rule):
    """FLT001: float arithmetic stored into a cycle-counter-like name.

    Cycle counters and readiness deadlines are exact integers; float
    results (true division, float literals, ``float()``) drift under
    reordering and break the bit-identical fast-forwarding contract.
    Use ``//`` or wrap the expression in ``int()``/``round()``.
    """

    id = "FLT001"
    title = "float arithmetic on a cycle counter"

    _TOKENS = {"now", "cycle", "cycles", "ready", "arrival",
               "deadline", "wake", "until"}
    _SAFE_WRAPPERS = {"int", "round", "floor", "ceil", "len", "min", "max"}

    @classmethod
    def _cycle_name(cls, target) -> str | None:
        if isinstance(target, ast.Name):
            name = target.id
        elif isinstance(target, ast.Attribute):
            name = target.attr
        else:
            return None
        if cls._TOKENS & set(name.lower().split("_")):
            return name
        return None

    def _float_subexpr(self, node) -> ast.AST | None:
        """A float-producing subexpression not neutralised by int()/round()."""
        if isinstance(node, ast.Call):
            chain = _attr_chain(node.func)
            if chain and chain[-1] in ("int", "round", "floor", "ceil"):
                return None  # explicitly truncated back to int
            if chain == ["float"]:
                return node
            for arg in node.args:
                found = self._float_subexpr(arg)
                if found is not None:
                    return found
            return None
        if isinstance(node, ast.BinOp):
            if isinstance(node.op, ast.Div):
                return node
            return self._float_subexpr(node.left) or self._float_subexpr(node.right)
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            return node
        if isinstance(node, (ast.IfExp,)):
            return (self._float_subexpr(node.body)
                    or self._float_subexpr(node.orelse))
        if isinstance(node, ast.UnaryOp):
            return self._float_subexpr(node.operand)
        return None

    def check_module(self, tree, path):
        findings = []
        for node in ast.walk(tree):
            if isinstance(node, ast.AugAssign):
                name = self._cycle_name(node.target)
                if name is None:
                    continue
                if isinstance(node.op, ast.Div):
                    findings.append(self._finding(
                        path, node,
                        f"true division assigned to cycle counter {name!r}; "
                        f"use //= to keep cycles integral",
                    ))
                    continue
                bad = self._float_subexpr(node.value)
                if bad is not None:
                    findings.append(self._finding(
                        path, node,
                        f"float arithmetic folded into cycle counter {name!r}",
                    ))
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    name = self._cycle_name(target)
                    if name is None:
                        continue
                    bad = self._float_subexpr(node.value)
                    if bad is not None:
                        findings.append(self._finding(
                            path, node,
                            f"float-valued expression assigned to cycle "
                            f"counter {name!r}; wrap in int()/round() or use //",
                        ))
                        break
        return findings


class RawPersistenceRule(Rule):
    """IO001: raw rename or append-mode open outside ``repro.util.atomicio``.

    Worker processes share on-disk artifacts (result cache, manifests,
    ``REPRO_RUN_LOG``).  A buffered ``open(path, "a")``
    can flush mid-record and interleave with another writer's lines; a
    hand-rolled ``os.replace`` tends to skip tmp + fsync.  Both idioms
    live in :mod:`repro.util.atomicio`, the only module allowlisted.
    """

    id = "IO001"
    title = "raw rename or append-mode open outside repro.util.atomicio"

    _RENAMES = {"replace", "rename"}

    @staticmethod
    def _open_mode(node: ast.Call, chain: list[str], os_aliases) -> str:
        """Constant mode of ``open(path, mode)`` or ``path.open(mode)``."""
        if chain == ["open"]:
            position = 1
        elif (isinstance(node.func, ast.Attribute) and node.func.attr == "open"
              and not (chain and chain[0] in os_aliases)):  # os.open: flags
            position = 0
        else:
            return ""
        mode = node.args[position] if len(node.args) > position else None
        for kw in node.keywords:
            if kw.arg == "mode":
                mode = kw.value
        if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
            return mode.value
        return ""

    def check_module(self, tree, path):
        if _is_module(path, "util/atomicio.py"):
            return []  # the one module allowed to hold the raw idioms
        findings = []
        os_aliases = _module_aliases(tree, "os")
        renames = set(_from_imports(tree, "os", self._RENAMES))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            chain = _attr_chain(node.func)
            if (len(chain) == 1 and chain[0] in renames) or (
                len(chain) == 2 and chain[0] in os_aliases
                and chain[1] in self._RENAMES
            ):
                message = (f"raw os.{chain[-1]}() outside repro.util.atomicio;"
                           f" call atomicio.write_bytes/write_text/write_json")
            elif "a" in self._open_mode(node, chain, os_aliases):
                message = ("append-mode open: buffered writes can interleave "
                           "with another process's; call atomicio.append_line"
                           "/append_jsonl")
            else:
                continue
            findings.append(self._finding(path, node, message))
        return findings


class BareExceptRule(Rule):
    """EXC001: bare ``except:``.

    Catches ``KeyboardInterrupt``/``SystemExit`` and every programming
    error alike; name the exception types the handler can actually deal
    with.
    """

    id = "EXC001"
    title = "bare except"

    def check_module(self, tree, path):
        return [
            self._finding(path, node, "bare except: name the exception types")
            for node in ast.walk(tree)
            if isinstance(node, ast.ExceptHandler) and node.type is None
        ]


class SilentHandlerRule(Rule):
    """EXC002: exception handler that silently drops the error.

    A handler whose whole body is ``pass``/``...`` erases the failure
    with no trace — in a simulator this converts crashes into silently
    wrong (and then cached) numbers.  Log, count, re-raise, or annotate
    the line with a suppression stating why dropping is correct.
    """

    id = "EXC002"
    title = "silent exception handler"

    def check_module(self, tree, path):
        findings = []
        for node in ast.walk(tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            body = [
                stmt for stmt in node.body
                if not (isinstance(stmt, ast.Expr)
                        and isinstance(stmt.value, ast.Constant)
                        and isinstance(stmt.value.value, str))
            ]
            if all(
                isinstance(stmt, ast.Pass)
                or (isinstance(stmt, ast.Expr)
                    and isinstance(stmt.value, ast.Constant)
                    and stmt.value.value is Ellipsis)
                for stmt in body
            ):
                findings.append(self._finding(
                    path, node,
                    "exception silently dropped; handle it, count it, or "
                    "suppress with a rationale",
                ))
        return findings


#: Methods on the per-cycle hot path.  Mirrors
#: ``repro.analysis.semantic.effects.PER_CYCLE_HOOKS`` (a test pins the
#: two sets together; lint must not import the semantic layer) plus the
#: hot helpers reached from them every issue.
HOT_METHODS = {
    "step", "step_window", "select", "load", "store", "lookup", "tick",
    "on_command", "on_enqueue", "account_window", "presettle",
    "_do_dispatch", "_do_commit", "_do_load_issues", "_do_window",
    "_execute", "_build_candidates", "_service_refresh",
    # hot helpers on the issue path, not per-cycle hooks themselves
    "_complete_at", "try_enqueue",
    # the cache hierarchy's per-miss path and the array fills under it
    "_access_l2", "_fill_l1_and_respond", "_install_l2_fill",
    "_resolve_remote_copies", "_invalidate_remote", "_evict_l2_line",
    "insert", "insert_range",
}


class HotLoopRule(Rule):
    """Shared machinery for the PERF rules: loops in hot methods.

    A "hot loop" is any ``for``/``while`` inside a method whose name is
    in :data:`HOT_METHODS` — these run every simulated cycle, so an
    allocation or repeated attribute walk inside them is paid millions
    of times per run.  The per-iteration region of a ``for`` loop is its
    body (the iterable expression runs once); a ``while`` loop's test
    re-evaluates every iteration and is included.
    """

    def _hot_functions(self, tree):
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name in HOT_METHODS:
                yield node

    @staticmethod
    def _loops(fn):
        for node in ast.walk(fn):
            if isinstance(node, (ast.For, ast.While)):
                yield node

    @staticmethod
    def _region(loop):
        region = list(loop.body) + list(loop.orelse)
        if isinstance(loop, ast.While):
            region.append(loop.test)
        return region

    @classmethod
    def _walk_region(cls, loop):
        for part in cls._region(loop):
            yield from ast.walk(part)


class LoopAllocationRule(HotLoopRule):
    """PERF001: list/deque allocation inside a hot loop.

    Every iteration pays the allocator; at simulator scale that is
    millions of short-lived objects per run.  Hoist the container out of
    the loop, reuse a preallocated buffer, or append to an accumulator
    created once.  An allocation that genuinely must happen per
    iteration (e.g. handing off an owned list) carries a suppression
    with its amortisation rationale.
    """

    id = "PERF001"
    title = "list allocated inside a per-cycle hot loop"

    _LITERALS = (ast.List, ast.ListComp)
    _CALLS = {"list", "deque"}

    @classmethod
    def _allocation(cls, node) -> str | None:
        if isinstance(node, ast.List) and isinstance(node.ctx, ast.Load):
            return "a list literal"
        if isinstance(node, ast.ListComp):
            return "a list comprehension"
        if isinstance(node, ast.Call):
            chain = _attr_chain(node.func)
            if len(chain) == 1 and chain[0] in cls._CALLS:
                return f"{chain[0]}(...)"
        return None

    def check_module(self, tree, path):
        findings = []
        seen = set()
        for fn in self._hot_functions(tree):
            for loop in self._loops(fn):
                for node in self._walk_region(loop):
                    what = self._allocation(node)
                    if what is None:
                        continue
                    key = (node.lineno, node.col_offset)
                    if key in seen:
                        continue
                    seen.add(key)
                    findings.append(self._finding(
                        path, node,
                        f"{what} is allocated every iteration of a loop in "
                        f"hot method {fn.name}(); hoist it out of the loop "
                        f"or reuse a buffer",
                    ))
        return findings


class LoopAttrReloadRule(HotLoopRule):
    """PERF002: the same attribute chain dereferenced repeatedly in one
    hot loop.

    Each ``obj.attr`` load is a dict probe; re-walking the same chain
    on every iteration (or several times per iteration) is pure
    overhead.  Bind the value to a local before the loop (``timing =
    self.timing``) — the idiom already used by the scheduler inner
    loops.  Chains that are re-assigned in the loop, rooted in the loop
    variable, or only ever called as methods are exempt.
    """

    id = "PERF002"
    title = "repeated attribute-chain load in a per-cycle hot loop"

    def check_module(self, tree, path):
        findings = []
        seen = set()
        for fn in self._hot_functions(tree):
            for loop in self._loops(fn):
                self._check_loop(fn, loop, path, findings, seen)
        return findings

    def _check_loop(self, fn, loop, path, findings, seen):
        counts: dict[tuple[str, str], list] = {}
        stored_roots: set[str] = set()
        stored_pairs: set[tuple[str, str]] = set()
        func_ids: set[int] = set()
        if isinstance(loop, ast.For):
            for t in ast.walk(loop.target):
                if isinstance(t, ast.Name):
                    stored_roots.add(t.id)
        for node in self._walk_region(loop):
            if isinstance(node, ast.Call):
                func_ids.add(id(node.func))
            elif isinstance(node, ast.Name) and isinstance(
                node.ctx, (ast.Store, ast.Del)
            ):
                stored_roots.add(node.id)
        for node in self._walk_region(loop):
            if not isinstance(node, ast.Attribute):
                continue
            chain = _attr_chain(node)
            if len(chain) != 2:
                continue
            pair = (chain[0], chain[1])
            if isinstance(node.ctx, (ast.Store, ast.Del)):
                stored_pairs.add(pair)
                continue
            if id(node) in func_ids:
                continue  # bare method call; nothing to hoist
            bucket = counts.setdefault(pair, [0, node])
            bucket[0] += 1
        for (root, attr), (n, first) in sorted(
            counts.items(), key=lambda kv: (kv[1][1].lineno, kv[1][1].col_offset)
        ):
            if n < 2:
                continue
            if root in stored_roots or (root, attr) in stored_pairs:
                continue
            key = (first.lineno, first.col_offset)
            if key in seen:
                continue
            seen.add(key)
            findings.append(self._finding(
                path, first,
                f"{root}.{attr} is dereferenced {n} times per iteration "
                f"of a loop in hot method {fn.name}(); bind it to a local "
                f"before the loop",
            ))


class LoopContainerBuildRule(HotLoopRule):
    """PERF003: dict/set construction inside a hot loop.

    Dicts and sets are the most expensive containers to build (hashing
    plus table setup); constructing one per iteration on the per-cycle
    path dominates profiles.  Build it once outside the loop and
    ``clear()``/update it, or restructure to avoid the container.
    """

    id = "PERF003"
    title = "dict/set constructed inside a per-cycle hot loop"

    _LITERALS = (ast.Dict, ast.Set, ast.DictComp, ast.SetComp)
    _CALLS = {"dict", "set", "frozenset"}

    @classmethod
    def _construction(cls, node) -> str | None:
        if isinstance(node, ast.Dict):
            return "a dict literal"
        if isinstance(node, ast.Set):
            return "a set literal"
        if isinstance(node, (ast.DictComp, ast.SetComp)):
            return "a dict/set comprehension"
        if isinstance(node, ast.Call):
            chain = _attr_chain(node.func)
            if len(chain) == 1 and chain[0] in cls._CALLS:
                return f"{chain[0]}(...)"
        return None

    def check_module(self, tree, path):
        findings = []
        seen = set()
        for fn in self._hot_functions(tree):
            for loop in self._loops(fn):
                for node in self._walk_region(loop):
                    what = self._construction(node)
                    if what is None:
                        continue
                    key = (node.lineno, node.col_offset)
                    if key in seen:
                        continue
                    seen.add(key)
                    findings.append(self._finding(
                        path, node,
                        f"{what} is built every iteration of a loop in hot "
                        f"method {fn.name}(); build it once outside the "
                        f"loop",
                    ))
        return findings


class SuppressionHygieneRule(Rule):
    """SUP001: suppression comment naming an unknown rule id.

    A ``# repro-lint: disable=``/``disable-file=`` directive naming a
    rule id that neither the lint pass nor the semantic analyzer
    registers suppresses nothing — usually a typo or a leftover after a
    rule rename — yet it reads as if the hazard were audited.  The stale
    directive must name a real rule or be removed.
    """

    id = "SUP001"
    title = "suppression names an unknown rule id"

    def check_module(self, tree, path):
        return []  # needs comment text, not the AST: driven by lint_source


ALL_RULES: tuple[Rule, ...] = (
    UnseededRandomRule(),
    WallClockRule(),
    SetIterationRule(),
    DictOrderRule(),
    MutableDefaultRule(),
    FloatCycleRule(),
    RawPersistenceRule(),
    BareExceptRule(),
    SilentHandlerRule(),
    LoopAllocationRule(),
    LoopAttrReloadRule(),
    LoopContainerBuildRule(),
    SuppressionHygieneRule(),
)

RULES_BY_ID = {rule.id: rule for rule in ALL_RULES}


# --------------------------------------------------------------- running


def lint_source(
    source: str, path: str = "<string>", select: set[str] | None = None
) -> LintReport:
    """Lint one source string; suppressed findings are reported separately."""
    report = LintReport(files=1)
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        report.errors.append(f"{path}: syntax error: {exc}")
        return report
    disabled = suppress.parse_suppressions(source)
    rules = [RULES_BY_ID[r] for r in sorted(select)] if select else ALL_RULES
    for rule in rules:
        for finding in rule.check_module(tree, path):
            if disabled.disabled(finding.line, finding.rule):
                report.suppressed.append(finding)
            else:
                report.findings.append(finding)
    if select is None or suppress.SUP001 in select:
        known = suppress.known_rule_ids()
        for line, name in disabled.unknown_mentions(known):
            finding = Finding(
                rule=suppress.SUP001, path=path, line=line, col=0,
                message=(
                    f"suppression names unknown rule {name!r}; no analysis "
                    f"pass registers it, so nothing is being suppressed"
                ),
            )
            if disabled.disabled(line, suppress.SUP001):
                report.suppressed.append(finding)
            else:
                report.findings.append(finding)
    report.findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return report


def iter_python_files(paths) -> list[Path]:
    files: list[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        elif path.suffix == ".py":
            files.append(path)
        else:
            raise FileNotFoundError(f"not a python file or directory: {path}")
    return files


def lint_paths(paths, select: set[str] | None = None) -> LintReport:
    """Lint every ``*.py`` under the given files/directories."""
    total = LintReport()
    for path in iter_python_files(paths):
        try:
            source = path.read_text()
        except OSError as exc:
            total.errors.append(f"{path}: {exc}")
            continue
        report = lint_source(source, str(path), select=select)
        total.findings.extend(report.findings)
        total.suppressed.extend(report.suppressed)
        total.errors.extend(report.errors)
        total.files += 1
    return total


def _default_target() -> list[str]:
    """``src/repro`` relative to this file (works installed or in-tree)."""
    return [str(Path(__file__).resolve().parent.parent)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description="simulator-specific AST lint pass (see repro.analysis.lint)",
    )
    parser.add_argument("paths", nargs="*",
                        help="files or directories (default: src/repro)")
    parser.add_argument("--select", default=None, metavar="IDS",
                        help="comma-separated rule ids to run (default: all)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print every rule id and its hazard description")
    parser.add_argument("--show-suppressed", action="store_true",
                        help="also print findings silenced by suppressions")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in ALL_RULES:
            doc = (rule.__class__.__doc__ or "").strip().splitlines()
            print(f"{rule.id}  {rule.title}")
            for line in doc[1:]:
                print(f"        {line.strip()}")
            print()
        return 0

    select = None
    if args.select:
        select = {r.strip().upper() for r in args.select.split(",") if r.strip()}
        unknown = select - set(RULES_BY_ID)
        if unknown:
            print(f"unknown rule ids: {', '.join(sorted(unknown))}",
                  file=sys.stderr)
            return 2

    report = lint_paths(args.paths or _default_target(), select=select)
    for finding in report.findings:
        print(finding.render())
    if args.show_suppressed:
        for finding in report.suppressed:
            print(f"[suppressed] {finding.render()}")
    for error in report.errors:
        print(error, file=sys.stderr)
    status = (
        f"{report.files} files, {len(report.findings)} findings, "
        f"{len(report.suppressed)} suppressed"
    )
    print(status)
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
