"""Interprocedural effect & purity inference (SEM030–SEM032).

The ROADMAP's next speed lever is batching the per-cycle model calls
(core dispatch/commit, hierarchy stepping, controller accounting) over
whole ready-windows — but every such shortcut must preserve the
bit-identity gate.  Rather than hand-arguing each transform, this pass
computes a per-method *effect summary* over a small lattice and derives
machine-checkable **batchability certificates** from it:

====================  ====================================================
PURE                  no writes reachable from ``self`` or foreign
                      objects, no randomness, no io
READS / MUTATES{f}    attribute roots read are free; attribute roots
                      *written* (``self.f``, including through local
                      aliases and container mutators) are recorded
RNG                   a call drawing from a random stream (``self._rng``,
                      the ``random`` module)
IO                    ``open``/``print``/``input`` reached
CYCLE-DEPENDENT       reads a clock (``now``/``cpu_now``/``dram_now``
                      parameters, ``self._now``) — informational: a pure
                      function *of* the clock is still window-invariant
                      because the caller fixes the argument
====================  ====================================================

Summaries are computed by fixpoint over the call graph: ``self.x()``
merges the callee's effects directly; calls on receivers whose class is
known by convention (:data:`~repro.analysis.semantic.domains.VAR_CLASS_SEEDS`,
loop targets over seeded attributes) fold the callee's self-mutations in
as *foreign* effects, preserving monotonicity — so a method whose only
effect is calling ``account_window`` on each channel inherits its
monotone-accumulating character instead of degrading to unknown.

From the summary each per-cycle hook is classified (see
:func:`classify`):

* ``window-invariant`` — no mutation/rng/io: safe to evaluate once per
  ready-window;
* ``monotone-accumulating`` — every mutation is an additive
  accumulation (``+=``), so a batched call can fold the window in
  closed form;
* ``per-cycle-only`` — anything else.

Rules:

=========  =============================================================
SEM030     a certified-pure method (``det_state``, ``next_wake``,
           ``skip_plan``, ``can_accept``…) has an undeclared effect —
           the batching certificate it anchors would be wrong
SEM031     randomness or io inside per-cycle model code (``step``,
           ``select``, dispatch/commit…) — nondeterminism or host
           interaction on the hot path
SEM032     a ``# repro-batch: cert=<Class.method>`` marker (written
           without the angle brackets) cites a method whose *current*
           summary is per-cycle-only (or that does not exist) — the
           batching shortcut is not backed by a certificate
=========  =============================================================

Soundness caveats (deliberate, documented): receivers the seeds cannot
type and attribute chains like ``self.tracer.note(...)`` are assumed
effect-free; dispatch is resolved through the *static* receiver class,
so an override that adds effects behind a base-typed reference is not
seen.  The runtime cross-check (``REPRO_VERIFY_EFFECTS=1``, see
:mod:`repro.analysis.effectcheck`) closes exactly that gap by
det_state-snapshotting around certified calls on a live run.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass

from repro.analysis.lint import Finding
from repro.analysis.semantic.detcov import (
    MUTATORS,
    _is_target,
    _root_self_attr,
)
from repro.analysis.semantic.domains import VAR_CLASS_SEEDS
from repro.analysis.semantic.modgraph import (
    ClassInfo,
    FunctionInfo,
    ModuleGraph,
)

SEM030 = "SEM030"
SEM031 = "SEM031"
SEM032 = "SEM032"

#: Certificate classifications (see :func:`classify`).
WINDOW_INVARIANT = "window-invariant"
MONOTONE_ACCUMULATING = "monotone-accumulating"
PER_CYCLE_ONLY = "per-cycle-only"

#: Methods expected PURE/READS wherever they appear on an audited
#: simulator class: the batching layer may evaluate them once per
#: ready-window, so any effect invalidates the certificate (SEM030).
CERTIFIED_PURE_METHODS = {
    "det_state", "det_state_scan", "next_wake", "next_wake_window",
    "skip_plan", "can_accept", "can_accept_store", "pending",
    "pre_admissible", "admissible", "oldest", "peek", "wake_cpu",
}

#: Per-cycle model hooks: called every busy cycle, so randomness or io
#: inside one poisons determinism/performance on the hot path (SEM031).
PER_CYCLE_HOOKS = {
    "step", "step_window", "select", "load", "store", "lookup", "tick",
    "on_command", "on_enqueue", "account_window", "presettle",
    "_do_dispatch", "_do_commit", "_do_load_issues", "_do_window",
    "_execute", "_build_candidates", "_service_refresh",
}

#: Name-chain parts marking a call as drawing randomness.
_RNG_TOKENS = {"rng", "_rng"}

#: Bare calls that reach host io.
_IO_CALLS = {"open", "print", "input"}

#: Names whose load marks a function cycle-dependent.
_CLOCK_NAMES = {"now", "cpu_now", "dram_now"}

#: ``# repro-batch: cert=<Class.method>`` (no angle brackets) — a
#: batching shortcut citing the certificate that justifies it.
_MARKER_RE = re.compile(r"#\s*repro-batch:\s*cert=([A-Za-z_][\w.]*)")

_MAX_ROUNDS = 10


@dataclass(frozen=True)
class FnEffects:
    """One function's effect summary."""

    #: ``self``-attribute roots written (directly, through aliases, or
    #: via in-place container mutators), including by self-calls.
    mutates: frozenset = frozenset()
    #: ``Receiver.attr`` descriptions of writes to foreign objects
    #: (parameters, seeded receivers, resolved foreign calls).
    foreign: frozenset = frozenset()
    rng: bool = False
    io: bool = False
    cycle: bool = False
    #: True when any recorded mutation is not an additive accumulation.
    nonmonotone: bool = False

    @property
    def pure(self) -> bool:
        return not (self.mutates or self.foreign or self.rng or self.io)

    def describe(self) -> str:
        parts = []
        if self.mutates:
            parts.append("mutates self." + ", self.".join(sorted(self.mutates)))
        if self.foreign:
            parts.append("mutates " + ", ".join(sorted(self.foreign)))
        if self.rng:
            parts.append("draws randomness")
        if self.io:
            parts.append("performs io")
        return "; ".join(parts) or "pure"


def classify(eff: FnEffects) -> str:
    """Certificate class for one effect summary.

    Cycle-dependence does not demote a method: a pure function of
    ``now`` re-evaluates identically for a fixed argument, which is
    what window batching needs.
    """
    if eff.rng or eff.io:
        return PER_CYCLE_ONLY
    if not eff.mutates and not eff.foreign:
        return WINDOW_INVARIANT
    if not eff.nonmonotone:
        return MONOTONE_ACCUMULATING
    return PER_CYCLE_ONLY


def _call_chain(node: ast.AST) -> list[str]:
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    parts.reverse()
    return parts


class _EffectScan:
    """One function's *local* effect extraction plus its call edges.

    The AST is walked exactly once; interprocedural propagation happens
    afterwards, as a cheap fixpoint over the collected edges (see
    :func:`infer_effects`).
    """

    def __init__(self, graph: ModuleGraph, func: FunctionInfo) -> None:
        self.graph = graph
        self.func = func
        #: (callee qualname, foreign receiver class name or None).
        self.calls: list[tuple[str, str | None]] = []
        self.mutates: set[str] = set()
        self.foreign: set[str] = set()
        self.rng = False
        self.io = False
        self.cycle = False
        self.nonmonotone = False
        self.aliases = self._self_aliases()
        self.var_classes = self._var_classes()
        params = set(func.params) - {"self", "cls"}
        self.foreign_roots = params | set(VAR_CLASS_SEEDS) | set(
            self.var_classes
        )

    # ------------------------------------------------------------- aliases

    def _self_aliases(self) -> dict[str, set[str]]:
        """Local name -> root self attributes it may alias
        (``wakes = self._chan_wake`` makes ``wakes[ch] = x`` a mutation
        of ``_chan_wake``).  Roots accumulate across rebinds, so the
        fixpoint is monotone and flow-insensitivity stays conservative.
        """
        aliases: dict[str, set[str]] = {}
        changed = True
        while changed:
            changed = False
            for node in ast.walk(self.func.node):
                if not isinstance(node, ast.Assign):
                    continue
                roots = self._value_roots(node.value, aliases)
                if not roots:
                    continue
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        have = aliases.setdefault(target.id, set())
                        if not roots <= have:
                            have |= roots
                            changed = True
        return aliases

    @staticmethod
    def _value_roots(
        node: ast.AST, aliases: dict[str, set[str]]
    ) -> set[str]:
        root = _root_self_attr(node)
        if root is not None:
            return {root}
        while isinstance(node, (ast.Attribute, ast.Subscript)):
            node = node.value
        if isinstance(node, ast.Name):
            return set(aliases.get(node.id, ()))
        return set()

    def _var_classes(self) -> dict[str, str]:
        """Local name -> bare class name, from loop targets and assigns
        over seeded attributes (``for chan in self.channels``)."""
        out: dict[str, str] = {}
        for node in ast.walk(self.func.node):
            if isinstance(node, ast.For):
                bare = self._seed_of(node.iter)
                if bare and isinstance(node.target, ast.Name):
                    out[node.target.id] = bare
            elif isinstance(node, ast.Assign):
                bare = self._seed_of(node.value)
                if bare:
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            out[target.id] = bare
        return out

    @staticmethod
    def _seed_of(node: ast.AST) -> str | None:
        while isinstance(node, ast.Subscript):
            node = node.value
        if isinstance(node, ast.Attribute):
            return VAR_CLASS_SEEDS.get(node.attr)
        if isinstance(node, ast.Name):
            return VAR_CLASS_SEEDS.get(node.id)
        return None

    def _receiver_class(self, node: ast.AST) -> ClassInfo | None:
        if isinstance(node, ast.Name):
            if node.id == "self" and self.func.cls is not None:
                return self.func.cls
            bare = self.var_classes.get(node.id) or VAR_CLASS_SEEDS.get(
                node.id
            )
        elif isinstance(node, ast.Attribute):
            bare = VAR_CLASS_SEEDS.get(node.attr)
        elif isinstance(node, ast.Subscript):
            return self._receiver_class(node.value)
        else:
            bare = None
        if bare is None:
            return None
        return self.graph.resolve_class(self.func.module, bare)

    # ----------------------------------------------------------- recording

    def _store_roots(self, target: ast.AST) -> set[str]:
        """Root self attributes a store mutates (empty when not rooted
        at ``self`` or an alias of it)."""
        root = _root_self_attr(target)
        if root is not None:
            return {root}
        node = target
        while isinstance(node, (ast.Attribute, ast.Subscript)):
            node = node.value
        if isinstance(node, ast.Name):
            return set(self.aliases.get(node.id, ()))
        return set()

    def _foreign_desc(self, target: ast.AST) -> str | None:
        """``recv.attr`` description when the store roots at a foreign
        object (parameter or seeded receiver)."""
        node = target
        attr: str | None = None
        while isinstance(node, (ast.Attribute, ast.Subscript)):
            if isinstance(node, ast.Attribute):
                attr = node.attr
            node = node.value
        if (
            isinstance(node, ast.Name)
            and node.id != "self"
            and node.id in self.foreign_roots
        ):
            return f"{node.id}.{attr}" if attr else f"{node.id}[...]"
        return None

    def _record_store(self, target: ast.AST, monotone: bool) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._record_store(elt, monotone)
            return
        if isinstance(target, ast.Name):
            return  # local rebind, not an object mutation
        if not isinstance(target, (ast.Attribute, ast.Subscript)):
            return
        roots = self._store_roots(target)
        if roots:
            self.mutates |= roots
            if not monotone:
                self.nonmonotone = True
            return
        desc = self._foreign_desc(target)
        if desc is not None:
            self.foreign.add(desc)
            if not monotone:
                self.nonmonotone = True

    def _merge_callee(
        self, callee: FunctionInfo, foreign_recv: str | None
    ) -> None:
        self.calls.append((callee.qualname, foreign_recv))

    def _record_call(self, node: ast.Call) -> None:
        fn = node.func
        chain = _call_chain(fn)
        if chain and chain[-1] == "partial" and node.args:
            # partial(f, ...) defers a call of f, as a lambda calling f
            # does; the walk charges a lambda body's calls to the
            # enclosing function, so charge f the same way.
            self._record_call(ast.Call(func=node.args[0], args=[], keywords=[]))
        if chain and (
            any(part in _RNG_TOKENS for part in chain)
            or chain[0] == "random"
        ):
            self.rng = True
        if isinstance(fn, ast.Name):
            if fn.id in _IO_CALLS:
                self.io = True
            mod = self.func.module
            callee = mod.functions.get(fn.id)
            if callee is None:
                target = mod.imports.get(fn.id)
                if target:
                    owner, _, name = target.rpartition(".")
                    owner_mod = self.graph.modules.get(owner)
                    if owner_mod:
                        callee = owner_mod.functions.get(name)
            if callee is not None:
                self._merge_callee(callee, foreign_recv=None)
            return
        if not isinstance(fn, ast.Attribute):
            return
        if fn.attr in MUTATORS:
            roots = self._store_roots(fn.value)
            if roots:
                self.mutates |= roots
                self.nonmonotone = True
            else:
                desc = self._foreign_desc(fn.value)
                if desc is not None:
                    self.foreign.add(f"{desc}.{fn.attr}()")
                    self.nonmonotone = True
            return
        recv = fn.value
        if isinstance(recv, ast.Name) and recv.id == "self":
            if self.func.cls is not None:
                callee = self.graph.lookup_method(self.func.cls, fn.attr)
                if callee is not None:
                    self._merge_callee(callee, foreign_recv=None)
            return
        rcls = self._receiver_class(recv)
        if rcls is not None:
            callee = self.graph.lookup_method(rcls, fn.attr)
            if callee is not None:
                self._merge_callee(callee, foreign_recv=rcls.name)

    # ----------------------------------------------------------------- run

    def run(self) -> FnEffects:
        for node in ast.walk(self.func.node):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    self._record_store(target, monotone=False)
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                self._record_store(node.target, monotone=False)
            elif isinstance(node, ast.AugAssign):
                self._record_store(
                    node.target, monotone=isinstance(node.op, ast.Add)
                )
            elif isinstance(node, ast.Delete):
                for target in node.targets:
                    self._record_store(target, monotone=False)
            elif isinstance(node, ast.Call):
                self._record_call(node)
            elif isinstance(node, ast.Name) and isinstance(
                node.ctx, ast.Load
            ):
                if node.id in _CLOCK_NAMES:
                    self.cycle = True
            elif isinstance(node, ast.Attribute) and isinstance(
                node.ctx, ast.Load
            ):
                if node.attr == "_now":
                    self.cycle = True
        return FnEffects(
            mutates=frozenset(self.mutates),
            foreign=frozenset(self.foreign),
            rng=self.rng,
            io=self.io,
            cycle=self.cycle,
            nonmonotone=self.nonmonotone,
        )


def infer_effects(graph: ModuleGraph) -> dict[str, FnEffects]:
    """Fixpoint effect summaries for every function in the graph.

    Each function's AST is scanned once for local effects and call
    edges; summaries then propagate over the edges until stable (the
    lattice is finite and the merge monotone, so the round cap is a
    backstop, not a correctness device).
    """
    local: dict[str, FnEffects] = {}
    edges: dict[str, list[tuple[str, str | None]]] = {}
    functions = graph.all_functions()
    for func in functions:
        scan = _EffectScan(graph, func)
        local[func.qualname] = scan.run()
        edges[func.qualname] = scan.calls
    table = dict(local)
    order = [func.qualname for func in functions]
    for _ in range(_MAX_ROUNDS):
        changed = False
        for qualname in order:
            base = local[qualname]
            mutates = set(base.mutates)
            foreign = set(base.foreign)
            rng, io = base.rng, base.io
            cycle, nonmono = base.cycle, base.nonmonotone
            for callee, recv in edges[qualname]:
                eff = table.get(callee)
                if eff is None:
                    continue
                if recv is None:
                    mutates |= eff.mutates
                else:
                    foreign |= {f"{recv}.{attr}" for attr in eff.mutates}
                foreign |= eff.foreign
                rng = rng or eff.rng
                io = io or eff.io
                cycle = cycle or eff.cycle
                nonmono = nonmono or eff.nonmonotone
            eff = FnEffects(
                mutates=frozenset(mutates),
                foreign=frozenset(foreign),
                rng=rng, io=io, cycle=cycle, nonmonotone=nonmono,
            )
            if table[qualname] != eff:
                table[qualname] = eff
                changed = True
        if not changed:
            break
    return table


def method_effects(
    graph: ModuleGraph,
    table: dict[str, FnEffects],
    cls: ClassInfo,
    name: str,
) -> FnEffects | None:
    """Effects of ``cls.name`` resolved through the static MRO."""
    func = graph.lookup_method(cls, name)
    if func is None:
        return None
    return table.get(func.qualname, FnEffects())


class EffectPass:
    """SEM030–SEM032: effect/purity contracts on the per-cycle path."""

    ids = (SEM030, SEM031, SEM032)

    def run(self, graph: ModuleGraph) -> list[Finding]:
        table = infer_effects(graph)
        findings: list[Finding] = []
        findings.extend(self._check_certified(graph, table))
        findings.extend(self._check_hooks(graph, table))
        findings.extend(self._check_markers(graph, table))
        return findings

    # ------------------------------------------------------------- SEM030

    def _check_certified(
        self, graph: ModuleGraph, table: dict[str, FnEffects]
    ) -> list[Finding]:
        findings: list[Finding] = []
        for cls in graph.all_classes():
            if not _is_target(graph, cls):
                continue
            for name in sorted(CERTIFIED_PURE_METHODS):
                func = cls.methods.get(name)
                if func is None:
                    continue
                eff = table.get(func.qualname, FnEffects())
                if eff.pure:
                    continue
                findings.append(
                    Finding(
                        rule=SEM030,
                        path=cls.module.path,
                        line=func.node.lineno,
                        col=func.node.col_offset,
                        message=(
                            f"{cls.name}.{name}() sits on a certified-pure "
                            f"path but {eff.describe()}; a batching "
                            f"certificate anchored here would be wrong"
                        ),
                    )
                )
        return findings

    # ------------------------------------------------------------- SEM031

    def _check_hooks(
        self, graph: ModuleGraph, table: dict[str, FnEffects]
    ) -> list[Finding]:
        findings: list[Finding] = []
        for cls in graph.all_classes():
            if not _is_target(graph, cls):
                continue
            for name in sorted(PER_CYCLE_HOOKS):
                func = cls.methods.get(name)
                if func is None:
                    continue
                eff = table.get(func.qualname, FnEffects())
                if not (eff.rng or eff.io):
                    continue
                what = []
                if eff.rng:
                    what.append("draws randomness")
                if eff.io:
                    what.append("performs io")
                findings.append(
                    Finding(
                        rule=SEM031,
                        path=cls.module.path,
                        line=func.node.lineno,
                        col=func.node.col_offset,
                        message=(
                            f"{cls.name}.{name}() {' and '.join(what)} on "
                            f"the per-cycle path; model hooks must be "
                            f"deterministic and io-free (seeded streams "
                            f"need a suppression with rationale)"
                        ),
                    )
                )
        return findings

    # ------------------------------------------------------------- SEM032

    def _check_markers(
        self, graph: ModuleGraph, table: dict[str, FnEffects]
    ) -> list[Finding]:
        findings: list[Finding] = []
        for mod_name in sorted(graph.modules):
            mod = graph.modules[mod_name]
            for lineno, text in enumerate(mod.source.splitlines(), start=1):
                match = _MARKER_RE.search(text)
                if not match:
                    continue
                ref = match.group(1)
                eff = self._resolve_ref(graph, mod, ref, table)
                if eff is None:
                    findings.append(
                        Finding(
                            rule=SEM032,
                            path=mod.path,
                            line=lineno,
                            col=0,
                            message=(
                                f"batching marker cites {ref!r}, which "
                                f"resolves to no method in the analyzed "
                                f"program; the shortcut has no certificate"
                            ),
                        )
                    )
                elif classify(eff) == PER_CYCLE_ONLY:
                    findings.append(
                        Finding(
                            rule=SEM032,
                            path=mod.path,
                            line=lineno,
                            col=0,
                            message=(
                                f"batching marker cites {ref!r}, whose "
                                f"current effect summary is per-cycle-only "
                                f"({eff.describe()}); the shortcut is not "
                                f"backed by a certificate"
                            ),
                        )
                    )
        return findings

    @staticmethod
    def _resolve_ref(graph, mod, ref, table) -> FnEffects | None:
        cls_name, _, meth_name = ref.rpartition(".")
        if not cls_name:
            return None
        cls = graph.resolve_class(mod, cls_name)
        if cls is None:
            return None
        func = graph.lookup_method(cls, meth_name)
        if func is None:
            return None
        return table.get(func.qualname, FnEffects())
