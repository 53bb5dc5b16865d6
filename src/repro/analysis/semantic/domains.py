"""Cycle-domain dataflow pass (SEM001–SEM003).

The simulator runs on two clocks — CPU cycles and DRAM command-clock
cycles — plus wall-time constants in nanoseconds and plain counts.  A
CPU-cycle deadline added to a DRAM-cycle counter is type-correct Python
and silently wrong by a factor of the clock ratio.  This pass gives
every expression a *domain* from the lattice::

    unknown  ⊑  {cpu_cycle, dram_cycle, ns, dimensionless}  ⊑  unknown

seeded from annotated ground truth (``ChannelTiming``/``DramTimings``
fields and bank readiness deadlines are dram_cycle, core fetch/skip
state is cpu_cycle, ``refresh_interval_us`` is ns, ``seq`` numbers are
dimensionless) and propagated flow-sensitively through assignments,
attribute stores, calls and returns across the whole module graph.
Multiplying or floor-dividing by a clock-ratio expression
(``cpu_ratio`` et al.) is the only sanctioned cast: ``dram * ratio``
yields cpu_cycle and ``cpu // ratio`` yields dram_cycle, exactly the
conversions ``MemorySystem`` performs at its boundary.

Rules:

=========  =============================================================
SEM001     mixed-domain arithmetic: ``+``/``-`` (or ``min``/``max``)
           combining two different concrete time domains
SEM002     mixed-domain comparison: ordering/equality between two
           different concrete time domains
SEM003     mixed-domain dataflow across a declared boundary: storing
           into a domain-seeded attribute, or passing an argument to a
           domain-seeded parameter, with the wrong clock
=========  =============================================================

Everything unknown stays silent: the pass only reports when *both*
sides of an operation have concrete, different time domains, so partial
seeding cannot produce false positives, only missed findings.
"""

from __future__ import annotations

import ast

from repro.analysis.lint import Finding
from repro.analysis.semantic import cfg as cfglib
from repro.analysis.semantic.dataflow import run_forward
from repro.analysis.semantic.modgraph import (
    ClassInfo,
    FunctionInfo,
    ModuleGraph,
)

CPU = "cpu_cycle"
DRAM = "dram_cycle"
NS = "ns"
DIMLESS = "dimensionless"

#: Domains that denote physical time on a specific clock.
_TIME = (CPU, DRAM, NS)

SEM001 = "SEM001"
SEM002 = "SEM002"
SEM003 = "SEM003"

# ------------------------------------------------------------------ seeds

#: Attribute names with a known domain wherever they appear.  These are
#: the analyzer's hand-written ground truth for state the simulator
#: builds dynamically.  The ``DramTimings`` fields are *not* listed
#: here: they carry unit-bearing type annotations (``DramCycles`` et
#: al. in :mod:`repro.config`), which
#: :func:`seed_attr_domains_from_types` turns into seeds automatically
#: — rename or add a timing field and the analyzer follows.
ATTR_SEEDS: dict[str, str] = {
    # Bank readiness deadlines and channel bus bookkeeping.
    "act_ready": DRAM, "cas_ready": DRAM, "pre_ready": DRAM,
    "last_use": DRAM, "next_cas_allowed": DRAM, "data_bus_free": DRAM,
    "rank_act_ready": DRAM, "rank_read_after_write": DRAM,
    "row_idle_precharge_cycles": DRAM, "starvation_cap_dram_cycles": DRAM,
    "starvation_cap": DRAM, "_next_refresh": DRAM,
    # Transaction / request timestamps are stamped on the DRAM clock.
    "arrival": DRAM,
    # Core-side state runs on the CPU clock.
    "skip_until": CPU, "_fetch_resume": CPU, "_quiet_from": CPU,
    # Explicitly unitless identifiers.
    "seq": DIMLESS, "magnitude": DIMLESS, "open_row": DIMLESS,
    "burst_length": DIMLESS,
}

#: Local/parameter names with a known domain (exact match).
NAME_SEEDS: dict[str, str] = {
    "cpu_now": CPU, "cpu_cycle": CPU, "cpu_done": CPU, "cpu_wake": CPU,
    "dram_now": DRAM, "dram_cycle": DRAM, "dram_done": DRAM,
    "dram_wake": DRAM, "data_end": DRAM, "arrival": DRAM,
}

#: Attribute/name components that denote the CPU-per-DRAM clock ratio;
#: multiplying or floor-dividing by one is the sanctioned domain cast.
CONVERTER_NAMES = {"cpu_ratio", "_cpu_ratio", "_ratio", "ratio",
                   "clock_ratio"}

#: Module prefixes fixing the clock of a bare ``now`` parameter/local.
#: Scheduler subclasses override to dram_cycle wherever they live.
MODULE_NOW_DOMAINS: tuple[tuple[str, str], ...] = (
    ("repro.dram", DRAM),
    ("repro.sched", DRAM),
    ("repro.analysis.protocol", DRAM),
    ("repro.cpu", CPU),
    ("repro.cache", CPU),
    ("repro.sim", CPU),
    ("repro.core", CPU),
    ("repro.telemetry", CPU),
)

#: Variable/attribute names whose referent class is known by convention,
#: used to resolve method calls and attribute domains across objects.
VAR_CLASS_SEEDS: dict[str, str] = {
    "bank": "Bank", "banks": "Bank",
    "core": "OutOfOrderCore", "cores": "OutOfOrderCore",
    "channel": "ChannelController", "channels": "ChannelController",
    "controller": "ChannelController",
    "txn": "Transaction", "cand": "CandidateCommand",
    "timing": "ChannelTiming",
    "memory": "MemorySystem", "memsys": "MemorySystem",
    "hierarchy": "MemoryHierarchy",
    "scheduler": "Scheduler",
    # The compiled queue's reference body, whose effects it shares.
    "events": "HeapEventQueue",
}


#: Unit-bearing type-annotation names (defined in :mod:`repro.config`)
#: mapped to the domain they declare.  Any attribute, property return,
#: or ``self.x: T = ...`` assignment annotated with one of these is
#: seeded with the corresponding domain, by *name*, graph-wide.
CYCLE_TYPE_DOMAINS: dict[str, str] = {
    "DramCycles": DRAM,
    "CpuCycles": CPU,
    "Nanos": NS,
}


def _annotation_domain(node: ast.AST | None) -> str | None:
    """Domain declared by a type annotation, unwrapping the common
    spellings: ``DramCycles``, ``"DramCycles"``, ``DramCycles | None``,
    ``Optional[DramCycles]``, ``config.DramCycles``."""
    if node is None:
        return None
    if isinstance(node, ast.Name):
        return CYCLE_TYPE_DOMAINS.get(node.id)
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return CYCLE_TYPE_DOMAINS.get(node.value.strip())
    if isinstance(node, ast.Attribute):
        return CYCLE_TYPE_DOMAINS.get(node.attr)
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        left = _annotation_domain(node.left)
        return left if left is not None else _annotation_domain(node.right)
    if isinstance(node, ast.Subscript):  # Optional[X], Final[X]
        return _annotation_domain(node.slice)
    return None


def _is_property(fn: FunctionInfo) -> bool:
    for deco in fn.node.decorator_list:
        name = deco.attr if isinstance(deco, ast.Attribute) else getattr(
            deco, "id", None
        )
        if name in ("property", "cached_property"):
            return True
    return False


def seed_attr_domains_from_types(graph: ModuleGraph) -> dict[str, str]:
    """Harvest attribute-domain seeds from unit-bearing annotations.

    Three spellings count, all keyed by attribute *name* (matching how
    :data:`ATTR_SEEDS` is consulted): class-body field annotations
    (dataclass fields), ``-> DramCycles`` returns on properties, and
    annotated instance assignments ``self.x: DramCycles = ...``.  A
    name annotated with two different domains anywhere in the graph is
    dropped entirely — a conflicting seed is worse than no seed.
    """
    seeds: dict[str, str] = {}
    conflicts: set[str] = set()

    def add(name: str, domain: str | None) -> None:
        if domain is None or name in conflicts:
            return
        if seeds.get(name, domain) != domain:
            conflicts.add(name)
            del seeds[name]
            return
        seeds[name] = domain

    for cls in graph.all_classes():
        for stmt in cls.node.body:
            if isinstance(stmt, ast.AnnAssign) and isinstance(
                stmt.target, ast.Name
            ):
                add(stmt.target.id, _annotation_domain(stmt.annotation))
        for method in cls.methods.values():
            if _is_property(method):
                add(method.name, _annotation_domain(method.node.returns))
            for node in ast.walk(method.node):
                if (
                    isinstance(node, ast.AnnAssign)
                    and isinstance(node.target, ast.Attribute)
                    and isinstance(node.target.value, ast.Name)
                    and node.target.value.id == "self"
                ):
                    add(node.target.attr, _annotation_domain(node.annotation))
    return seeds


def merge_domains(a: object, b: object) -> object:
    """Lattice join used at control-flow merges: disagree -> unknown."""
    return a if a == b else None


def _is_time(domain: object) -> bool:
    return domain in _TIME


def _mixed(a: object, b: object) -> bool:
    return _is_time(a) and _is_time(b) and a != b


def _is_converter(node: ast.AST) -> bool:
    if isinstance(node, ast.Attribute):
        return node.attr in CONVERTER_NAMES
    if isinstance(node, ast.Name):
        return node.id in CONVERTER_NAMES
    return False


def _target_names(target: ast.AST) -> list[str]:
    if isinstance(target, ast.Name):
        return [target.id]
    if isinstance(target, (ast.Tuple, ast.List)):
        names: list[str] = []
        for elt in target.elts:
            names.extend(_target_names(elt))
        return names
    return []


class _Scan:
    """One function's flow-sensitive domain analysis."""

    def __init__(
        self,
        graph: ModuleGraph,
        func: FunctionInfo,
        summaries: dict[str, str | None],
        class_attrs: dict[tuple[str, str], str | None],
        findings: list[Finding] | None,
        attr_seeds: dict[str, str] | None = None,
    ) -> None:
        self.graph = graph
        self.func = func
        self.summaries = summaries
        self.class_attrs = class_attrs
        self.findings = findings
        self.attr_seeds = ATTR_SEEDS if attr_seeds is None else attr_seeds
        self._flag = False
        self._returns: list[object] = []

    # --------------------------------------------------------------- seeds

    def param_domain(self, func: FunctionInfo, name: str) -> str | None:
        if "ratio" in name:
            return None
        if name in NAME_SEEDS:
            return NAME_SEEDS[name]
        if name.endswith("_cpu") or name.startswith("cpu_"):
            return CPU
        if name.endswith("_dram") or name.startswith("dram_"):
            return DRAM
        if name == "now":
            return self._now_domain(func)
        return None

    def _now_domain(self, func: FunctionInfo) -> str | None:
        if func.cls is not None and self.graph.is_subclass_of(
            func.cls, "Scheduler"
        ):
            return DRAM
        mod = func.module.name
        for prefix, domain in MODULE_NOW_DOMAINS:
            if mod == prefix or mod.startswith(prefix + "."):
                return domain
        return None

    def initial_env(self) -> dict[str, object]:
        env: dict[str, object] = {}
        for name in self.func.params:
            domain = self.param_domain(self.func, name)
            if domain is not None:
                env[name] = domain
        return env

    # --------------------------------------------------------- resolution

    def receiver_class(self, node: ast.AST) -> ClassInfo | None:
        if isinstance(node, ast.Name):
            if node.id == "self" and self.func.cls is not None:
                return self.func.cls
            bare = VAR_CLASS_SEEDS.get(node.id)
        elif isinstance(node, ast.Attribute):
            bare = VAR_CLASS_SEEDS.get(node.attr)
        elif isinstance(node, ast.Subscript):
            return self.receiver_class(node.value)
        else:
            bare = None
        if bare is None:
            return None
        return self.graph.resolve_class(self.func.module, bare)

    def resolve_call(self, call: ast.Call) -> FunctionInfo | None:
        fn = call.func
        if isinstance(fn, ast.Name):
            mod = self.func.module
            if fn.id in mod.functions:
                return mod.functions[fn.id]
            target = mod.imports.get(fn.id)
            if target:
                owner, _, name = target.rpartition(".")
                owner_mod = self.graph.modules.get(owner)
                if owner_mod and name in owner_mod.functions:
                    return owner_mod.functions[name]
            return None
        if isinstance(fn, ast.Attribute):
            rcls = self.receiver_class(fn.value)
            if rcls is not None:
                return self.graph.lookup_method(rcls, fn.attr)
        return None

    # ------------------------------------------------------------ findings

    def _emit(self, rule: str, node: ast.AST, message: str) -> None:
        if self.findings is None or not self._flag:
            return
        self.findings.append(
            Finding(
                rule=rule,
                path=self.func.module.path,
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0),
                message=message,
            )
        )

    # ----------------------------------------------------------- inference

    def infer(self, node: ast.AST, env: dict[str, object]) -> object:
        if isinstance(node, ast.Name):
            if node.id in env:
                return env[node.id]
            return NAME_SEEDS.get(node.id)
        if isinstance(node, ast.Attribute):
            return self._attr_domain(node, env)
        if isinstance(node, ast.Constant):
            if isinstance(node.value, (int, float)) and not isinstance(
                node.value, bool
            ):
                return DIMLESS
            return None
        if isinstance(node, ast.BinOp):
            return self._binop(node, env)
        if isinstance(node, ast.Compare):
            self._compare(node, env)
            return None  # a bool carries no time domain
        if isinstance(node, ast.BoolOp):
            for value in node.values:
                self.infer(value, env)
            return None
        if isinstance(node, ast.UnaryOp):
            return self.infer(node.operand, env)
        if isinstance(node, ast.IfExp):
            self.infer(node.test, env)
            body = self.infer(node.body, env)
            orelse = self.infer(node.orelse, env)
            return merge_domains(body, orelse)
        if isinstance(node, ast.Call):
            return self._call(node, env)
        if isinstance(node, ast.Subscript):
            self.infer(node.slice, env)
            return self.infer(node.value, env)
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            for elt in node.elts:
                self.infer(elt, env)
            return None
        if isinstance(node, ast.Dict):
            for key in node.keys:
                if key is not None:
                    self.infer(key, env)
            for value in node.values:
                self.infer(value, env)
            return None
        if isinstance(node, ast.Starred):
            return self.infer(node.value, env)
        return None

    def _attr_domain(self, node: ast.Attribute, env: dict[str, object]) -> object:
        is_self = isinstance(node.value, ast.Name) and node.value.id == "self"
        if is_self and f"self.{node.attr}" in env:
            return env[f"self.{node.attr}"]
        if node.attr in self.attr_seeds:
            return self.attr_seeds[node.attr]
        rcls = self.receiver_class(node.value)
        if rcls is not None:
            for cls in self.graph.mro(rcls):
                domain = self.class_attrs.get((cls.qualname, node.attr), "∅")
                if domain != "∅":
                    return domain
        return None

    def _binop(self, node: ast.BinOp, env: dict[str, object]) -> object:
        # Sanctioned casts first: ratio multiply/divide flips the clock.
        if isinstance(node.op, ast.Mult):
            for operand, other in (
                (node.left, node.right), (node.right, node.left)
            ):
                if _is_converter(operand):
                    domain = self.infer(other, env)
                    return CPU if domain == DRAM else None
        if isinstance(node.op, (ast.FloorDiv, ast.Div)) and _is_converter(
            node.right
        ):
            domain = self.infer(node.left, env)
            return DRAM if domain == CPU else None
        left = self.infer(node.left, env)
        right = self.infer(node.right, env)
        if isinstance(node.op, (ast.Add, ast.Sub)):
            if _mixed(left, right):
                self._emit(
                    SEM001, node,
                    f"mixed-domain arithmetic: {left} "
                    f"{'+' if isinstance(node.op, ast.Add) else '-'} {right} "
                    f"(convert through the clock ratio first)",
                )
                return None
            if left == right:
                return left
            if left == DIMLESS:
                return right
            if right == DIMLESS:
                return left
            return left if right is None else right if left is None else None
        if isinstance(node.op, ast.Mult):
            if left == DIMLESS:
                return right
            if right == DIMLESS:
                return left
            return None
        if isinstance(node.op, (ast.FloorDiv, ast.Div)):
            if right == DIMLESS:
                return left
            if _is_time(left) and left == right:
                return DIMLESS
            return None
        if isinstance(node.op, ast.Mod):
            return left if right == DIMLESS else None
        return None

    def _compare(self, node: ast.Compare, env: dict[str, object]) -> None:
        domains = [self.infer(node.left, env)]
        domains += [self.infer(comp, env) for comp in node.comparators]
        for i, op in enumerate(node.ops):
            if not isinstance(
                op, (ast.Lt, ast.LtE, ast.Gt, ast.GtE, ast.Eq, ast.NotEq)
            ):
                continue
            left, right = domains[i], domains[i + 1]
            if _mixed(left, right):
                self._emit(
                    SEM002, node,
                    f"mixed-domain comparison: {left} vs {right} "
                    f"(one side is on the wrong clock)",
                )

    def _call(self, node: ast.Call, env: dict[str, object]) -> object:
        fn = node.func
        arg_domains = [self.infer(arg, env) for arg in node.args]
        for kw in node.keywords:
            self.infer(kw.value, env)
        if isinstance(fn, ast.Name):
            if fn.id in ("min", "max") and len(node.args) >= 2:
                concrete = {d for d in arg_domains if _is_time(d)}
                if len(concrete) > 1:
                    self._emit(
                        SEM001, node,
                        f"{fn.id}() over mixed domains "
                        f"{sorted(concrete)}: operands are on different "
                        f"clocks",
                    )
                    return None
                if len(concrete) == 1:
                    return next(iter(concrete))
                return None
            if fn.id == "len":
                return DIMLESS
            if fn.id in ("int", "round", "abs") and node.args:
                return arg_domains[0]
        callee = self.resolve_call(node)
        if callee is None:
            return None
        self._check_args(node, callee, arg_domains, env)
        return self.summaries.get(callee.qualname)

    def _check_args(
        self,
        node: ast.Call,
        callee: FunctionInfo,
        arg_domains: list[object],
        env: dict[str, object],
    ) -> None:
        params = callee.params
        if callee.cls is not None and params and params[0] in ("self", "cls"):
            params = params[1:]
        for param, arg, domain in zip(params, node.args, arg_domains):
            expected = self.param_domain(callee, param)
            if _mixed(expected, domain):
                self._emit(
                    SEM003, arg,
                    f"argument {param!r} of {callee.qualname}() expects "
                    f"{expected} but receives {domain}",
                )
        by_name = dict(zip(params, arg_domains))  # positional, for context
        del by_name
        for kw in node.keywords:
            if kw.arg is None:
                continue
            expected = self.param_domain(callee, kw.arg)
            domain = self.infer(kw.value, env)
            if _mixed(expected, domain):
                self._emit(
                    SEM003, kw.value,
                    f"argument {kw.arg!r} of {callee.qualname}() expects "
                    f"{expected} but receives {domain}",
                )

    # ----------------------------------------------------------- statements

    def _record_class_attr(self, attr: str, domain: object) -> None:
        if self.func.cls is None or not _is_time(domain):
            return
        key = (self.func.cls.qualname, attr)
        current = self.class_attrs.get(key, "∅")
        if current == "∅":
            self.class_attrs[key] = str(domain)
        elif current != domain:
            self.class_attrs[key] = None

    def _assign_target(
        self, target: ast.AST, domain: object, env: dict[str, object],
        node: ast.AST,
    ) -> None:
        if isinstance(target, ast.Name):
            if domain is None:
                env.pop(target.id, None)
            else:
                env[target.id] = domain
            return
        if isinstance(target, ast.Attribute):
            expected = self.attr_seeds.get(target.attr)
            if _mixed(expected, domain):
                self._emit(
                    SEM003, node,
                    f"storing {domain} into {target.attr!r}, which is "
                    f"declared {expected}",
                )
            is_self = (
                isinstance(target.value, ast.Name)
                and target.value.id == "self"
            )
            if is_self:
                if domain is None:
                    env.pop(f"self.{target.attr}", None)
                else:
                    env[f"self.{target.attr}"] = domain
                self._record_class_attr(target.attr, domain)
            return
        if isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._assign_target(elt, None, env, node)
            return
        if isinstance(target, ast.Subscript):
            self.infer(target.value, env)
            self.infer(target.slice, env)
            base = target.value
            if isinstance(base, ast.Attribute):
                expected = self.attr_seeds.get(base.attr)
                if _mixed(expected, domain):
                    self._emit(
                        SEM003, node,
                        f"storing {domain} into an element of "
                        f"{base.attr!r}, which is declared {expected}",
                    )

    def apply_node(self, node: cfglib.Node, env: dict[str, object]) -> dict:
        stmt = node.stmt
        if stmt is None:
            return env
        if node.kind == cfglib.BRANCH:
            test = getattr(stmt, "test", None)
            if test is not None:
                self.infer(test, env)
            return env
        if node.kind == cfglib.LOOP:
            if isinstance(stmt, (ast.For, ast.AsyncFor)):
                domain = self.infer(stmt.iter, env)
                for name in _target_names(stmt.target):
                    if domain is None:
                        env.pop(name, None)
                    else:
                        env[name] = domain
            elif isinstance(stmt, ast.While):
                self.infer(stmt.test, env)
            return env
        if isinstance(stmt, ast.Assign):
            domain = self.infer(stmt.value, env)
            for target in stmt.targets:
                self._assign_target(target, domain, env, stmt)
            return env
        if isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                domain = self.infer(stmt.value, env)
                self._assign_target(stmt.target, domain, env, stmt)
            return env
        if isinstance(stmt, ast.AugAssign):
            value = self.infer(stmt.value, env)
            target = self.infer(stmt.target, env)
            if isinstance(stmt.op, (ast.Add, ast.Sub)) and _mixed(
                target, value
            ):
                self._emit(
                    SEM001, stmt,
                    f"mixed-domain arithmetic: {target} "
                    f"{'+=' if isinstance(stmt.op, ast.Add) else '-='} "
                    f"{value}",
                )
            return env
        if isinstance(stmt, ast.Return):
            domain = self.infer(stmt.value, env) if stmt.value else None
            self._returns.append(domain)
            return env
        if isinstance(stmt, ast.Expr):
            self.infer(stmt.value, env)
            return env
        if isinstance(stmt, ast.Assert):
            self.infer(stmt.test, env)
            return env
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                self.infer(item.context_expr, env)
            return env
        if isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    env.pop(target.id, None)
            return env
        return env

    # ---------------------------------------------------------------- run

    def run(self, flag: bool) -> None:
        cfg = cfglib.build_cfg(self.func.node)
        init = self.initial_env()
        self._flag = False
        in_envs = run_forward(
            cfg, init,
            lambda node, env: self.apply_node(node, env),
            merge_domains,
        )
        self._flag = flag
        self._returns = []
        for node in cfg.nodes:
            env = in_envs.get(node)
            if env is None:
                continue  # statically unreachable
            self.apply_node(node, dict(env))
        summary: object = None
        if self._returns:
            summary = self._returns[0]
            for domain in self._returns[1:]:
                summary = merge_domains(summary, domain)
        if _is_time(summary):
            self.summaries[self.func.qualname] = str(summary)
        else:
            self.summaries.pop(self.func.qualname, None)


class CycleDomainPass:
    """SEM001–SEM003: whole-program cycle-domain checking."""

    ids = (SEM001, SEM002, SEM003)

    def run(self, graph: ModuleGraph) -> list[Finding]:
        summaries: dict[str, str | None] = {}
        class_attrs: dict[tuple[str, str], str | None] = {}
        # Hand-written seeds plus whatever the unit-bearing type
        # annotations declare; annotations win on a name collision.
        attr_seeds = dict(ATTR_SEEDS)
        attr_seeds.update(seed_attr_domains_from_types(graph))
        functions = graph.all_functions()
        # Two summary rounds let return domains and inferred attribute
        # domains flow through call chains before anything is flagged.
        for _ in range(2):
            for func in functions:
                _Scan(
                    graph, func, summaries, class_attrs, None, attr_seeds
                ).run(False)
        findings: list[Finding] = []
        for func in functions:
            _Scan(
                graph, func, summaries, class_attrs, findings, attr_seeds
            ).run(True)
        return findings
