"""Det-state coverage audit (SEM010).

The determinism hash-chain (PR 2) is only as strong as the state it
folds: a new mutable field on ``ChannelController`` that never reaches
``det_state()`` lets two diverging runs hash identically until the
divergence becomes architecturally visible — exactly the silent class
of bug the chain exists to catch early.  This pass statically
enumerates every attribute a simulator class assigns or mutates outside
``__init__`` and cross-checks it against the fields read by
``det_state()`` methods, ``detchain.snapshot``, and telemetry
registration (``register_metrics``), anywhere in the program.

Coverage is name-level: reading ``bank.open_row`` inside *any*
``det_state`` covers the attribute ``open_row`` — the audit binds
state to the chain by field name, not by alias analysis.  Fields that
are genuinely derived, debug-only, or excluded by design (statistics
settled lazily during fast-forward) live in :data:`ALLOWLIST` with a
rationale, so every exemption is auditable in one place.

SEM010 fires on any remaining mutable attribute.
"""

from __future__ import annotations

import ast

from repro.analysis.lint import Finding
from repro.analysis.semantic.modgraph import ClassInfo, ModuleGraph

SEM010 = "SEM010"

#: Simulator classes audited even when they define no ``det_state`` of
#: their own (their state may be folded by an owning class).
TARGET_CLASS_NAMES = {
    "OutOfOrderCore",
    "ChannelController",
    "MemorySystem",
    "Bank",
    "ChannelTiming",
    "MshrFile",
    "MemoryHierarchy",
}

#: Methods whose attribute reads count as chain/telemetry coverage.
#: ``det_state_scan`` is the full-walk reference implementation of the
#: incrementally maintained cache det_state words — state it reads is
#: folded (via the incremental words it is asserted equal to).
COVERAGE_METHODS = {"det_state", "det_state_scan", "snapshot",
                    "register_metrics"}

#: Container methods that mutate their receiver in place.
MUTATORS = {
    "append", "appendleft", "extend", "insert", "remove", "pop",
    "popleft", "clear", "add", "discard", "update", "setdefault",
    "sort", "reverse", "popitem",
}

#: ``(class name, attribute) -> rationale`` exemptions.  Every entry
#: must say *why* the chain stays sound without the field, and must name
#: an attribute its class assigns: a stale entry would silently exempt any
#: future field of that name (``tests/test_semantic_analyzer.py`` checks).
ALLOWLIST: dict[tuple[str, str], str] = {
    # -- OutOfOrderCore ---------------------------------------------------
    ("OutOfOrderCore", "skip_until"):
        "fast-forward bookkeeping: differs between skip and naive runs "
        "by construction; folding it would break the skip contract",
    ("OutOfOrderCore", "_quiet_deltas"):
        "fast-forward bookkeeping (see skip_until)",
    ("OutOfOrderCore", "_quiet_from"):
        "fast-forward bookkeeping (see skip_until)",
    ("OutOfOrderCore", "plan_defer"):
        "fast-forward planning hint; never read by architectural state",
    ("OutOfOrderCore", "_done"):
        "ROB column: set once when the entry completes, cleared when the "
        "next entry dispatches into its slot; a divergence moves a retire "
        "and so the ROB-head/committed det_state words",
    ("OutOfOrderCore", "_next_local"):
        "earliest cycle in the two schedules, lowered by every insert and "
        "recomputed from the rings when a bucket is taken, so it is fully "
        "derived state (see _wake_head)",
    ("OutOfOrderCore", "_tick_at"):
        "cycle the provider's next tick is due: its next_tick_cycle "
        "answer, cached at construction and after each real tick, so it "
        "is derived from provider state; a tick that runs at another "
        "cycle changes provider state, whose effects reach the chain "
        "through the criticality of later requests",
    ("OutOfOrderCore", "_wake_head"):
        "completion schedule ring (first entry of each cycle's bucket); "
        "folded indirectly via the det_state occupancy words and the "
        "event-queue length",
    ("OutOfOrderCore", "_wake_tail"):
        "last entry of each completion bucket, for appends (see "
        "_wake_head)",
    ("OutOfOrderCore", "_issue_head"):
        "load-issue schedule ring (see _wake_head)",
    ("OutOfOrderCore", "_issue_tail"):
        "last entry of each load-issue bucket (see _wake_tail)",
    ("OutOfOrderCore", "_link"):
        "bucket order of the schedule rings, one link per ROB position "
        "(see _wake_head)",
    ("OutOfOrderCore", "_fu_tag"):
        "FU reservation ring (cycle tag per slot) derived from the "
        "issue schedule; a slot is reused once its cycle has passed, "
        "which no later booking reads",
    ("OutOfOrderCore", "_fu_count"):
        "units booked per FU ring slot (see _fu_tag)",
    ("OutOfOrderCore", "_pending"):
        "ROB column: in-flight producer count of a waiting entry, which "
        "issues when it reaches zero; a divergence moves that entry's "
        "completion and so the ROB-head/committed det_state words",
    ("OutOfOrderCore", "_wait_head"):
        "ROB column: first operand parked on an in-flight producer, "
        "its chain emptied when it completes; a lost or extra waiter "
        "moves a completion (see _pending)",
    ("OutOfOrderCore", "_wait_tail"):
        "ROB column: last operand parked on an in-flight producer "
        "(see _wait_head)",
    ("OutOfOrderCore", "_wait_next"):
        "chain links of the parked operands, one per operand slot "
        "(see _wait_head)",
    ("OutOfOrderCore", "_handle"):
        "ROB column: a load's hierarchy access, reset at retire; the "
        "access itself is chained via the MSHR and channel det_state",
    ("OutOfOrderCore", "_consumers"):
        "ROB column: a load's direct-consumer count, reset at retire, "
        "where it reaches the provider; its effect is the criticality "
        "of later requests, folded via the channels' det_state",
    ("OutOfOrderCore", "_bstart"):
        "ROB column: cycle a load began blocking commit, reset at "
        "retire; feeds the provider's stall record (see _consumers) "
        "and lazily settled statistics",
    ("OutOfOrderCore", "_wake_hook"):
        "wiring-time engine callback installed while the core is "
        "quiescent (see MemoryHierarchy._wake_core); not simulation "
        "state — it only tells the wake-driven loop to revisit",
    # -- MemorySystem -----------------------------------------------------
    ("MemorySystem", "_chan_wake"):
        "wake-driven clocking bookkeeping: derived from enqueue times "
        "and channel next_wake(), whose inputs (queues, refresh "
        "deadlines) are already folded via each channel's det_state",
    ("MemorySystem", "_chan_settled"):
        "lazy settlement cursor for skipped occupancy samples, which "
        "are statistics excluded from the chain (see account_window)",
    # -- MemoryHierarchy --------------------------------------------------
    ("MemoryHierarchy", "_now"):
        "mirror of the system clock installed via bind_clock; the "
        "chain already folds the sample cycle itself",
    ("MemoryHierarchy", "_wake_core"):
        "wiring-time callback installed via bind_core_waker, not "
        "simulation state",
    # -- Schedulers -------------------------------------------------------
    ("MorseScheduler", "_weights"):
        "learned CMAC weights (floats); any divergence changes the "
        "next decision, which the command-order words catch",
    ("MorseScheduler", "_prev_keys"):
        "SARSA bootstrap bookkeeping derived from the previous "
        "decision (see _weights)",
    ("MorseScheduler", "_prev_q"):
        "SARSA bootstrap bookkeeping (see _prev_keys)",
    ("MorseScheduler", "_rng"):
        "seeded exploration stream; consumed only at decision points, "
        "where command-order words expose divergence",
}

#: Attribute-name prefixes exempt everywhere, with one shared rationale.
ALLOWLIST_PREFIXES: dict[str, str] = {
    "_m_": "telemetry instrument handle bound lazily at registration",
}

#: Class-name substrings never audited (statistics are settled lazily
#: by flush_skip and excluded from the chain by design — see detchain).
EXCLUDED_CLASS_TOKENS = ("Stats",)


def _root_self_attr(node: ast.AST) -> str | None:
    """``self.X[...].y.z`` -> ``"X"``; None when not rooted at self."""
    chain: list[str] = []
    while True:
        if isinstance(node, ast.Attribute):
            chain.append(node.attr)
            node = node.value
        elif isinstance(node, ast.Subscript):
            node = node.value
        else:
            break
    if isinstance(node, ast.Name) and node.id == "self" and chain:
        return chain[-1]
    return None


def _is_target(graph: ModuleGraph, cls: ClassInfo) -> bool:
    if any(token in cls.name for token in EXCLUDED_CLASS_TOKENS):
        return False
    if cls.name in TARGET_CLASS_NAMES:
        return True
    if "det_state" in cls.methods:
        return True
    return graph.is_subclass_of(cls, "Scheduler")


class StateCoveragePass:
    """SEM010: unregistered mutable state on simulator classes."""

    ids = (SEM010,)

    def run(self, graph: ModuleGraph) -> list[Finding]:
        global_reads = self._global_coverage_reads(graph)
        findings: list[Finding] = []
        for cls in graph.all_classes():
            if not _is_target(graph, cls):
                continue
            findings.extend(self._check_class(graph, cls, global_reads))
        return findings

    # ------------------------------------------------------------- reads

    def _global_coverage_reads(self, graph: ModuleGraph) -> set[str]:
        """Attribute names read by any coverage method in the program."""
        reads: set[str] = set()
        for func in graph.all_functions():
            if func.name not in COVERAGE_METHODS:
                continue
            for node in ast.walk(func.node):
                if isinstance(node, ast.Attribute) and isinstance(
                    node.ctx, ast.Load
                ):
                    reads.add(node.attr)
        return reads

    def _class_coverage_reads(
        self, graph: ModuleGraph, cls: ClassInfo
    ) -> set[str]:
        """Self-attribute reads in this class's own coverage methods
        (resolved through the MRO, so an inherited det_state counts)."""
        reads: set[str] = set()
        for name in COVERAGE_METHODS:
            func = graph.lookup_method(cls, name)
            if func is None:
                continue
            for node in ast.walk(func.node):
                if isinstance(node, ast.Attribute) and isinstance(
                    node.ctx, ast.Load
                ):
                    reads.add(node.attr)
        return reads

    # ---------------------------------------------------------- mutations

    def _mutations(self, cls: ClassInfo) -> dict[str, tuple[str, int]]:
        """attr -> (method, line) of its first out-of-init mutation."""
        sites: dict[str, tuple[str, int]] = {}

        def record(attr: str | None, method: str, line: int) -> None:
            if attr is not None and attr not in sites:
                sites[attr] = (method, line)

        for mname in sorted(cls.methods):
            if mname in ("__init__", "__post_init__"):
                continue
            method = cls.methods[mname]
            for node in ast.walk(method.node):
                if isinstance(node, (ast.Assign, ast.AnnAssign)):
                    targets = (
                        node.targets
                        if isinstance(node, ast.Assign)
                        else [node.target]
                    )
                    for target in targets:
                        if isinstance(target, ast.Attribute) and isinstance(
                            target.value, ast.Name
                        ) and target.value.id == "self":
                            record(target.attr, mname, node.lineno)
                        else:
                            record(
                                _root_self_attr(target), mname, node.lineno
                            )
                elif isinstance(node, ast.AugAssign):
                    target = node.target
                    if isinstance(target, ast.Attribute) and isinstance(
                        target.value, ast.Name
                    ) and target.value.id == "self":
                        record(target.attr, mname, node.lineno)
                    else:
                        record(_root_self_attr(target), mname, node.lineno)
                elif isinstance(node, ast.Call) and isinstance(
                    node.func, ast.Attribute
                ) and node.func.attr in MUTATORS:
                    record(
                        _root_self_attr(node.func.value), mname, node.lineno
                    )
        return sites

    # ------------------------------------------------------------- checks

    def _allowed(self, cls: ClassInfo, attr: str) -> bool:
        if (cls.name, attr) in ALLOWLIST:
            return True
        return any(attr.startswith(p) for p in ALLOWLIST_PREFIXES)

    def _check_class(
        self, graph: ModuleGraph, cls: ClassInfo, global_reads: set[str]
    ) -> list[Finding]:
        covered = self._class_coverage_reads(graph, cls) | global_reads
        findings: list[Finding] = []
        for attr, (method, line) in sorted(self._mutations(cls).items()):
            if attr in covered or self._allowed(cls, attr):
                continue
            findings.append(
                Finding(
                    rule=SEM010,
                    path=cls.module.path,
                    line=line,
                    col=0,
                    message=(
                        f"{cls.name}.{attr} is mutated in {method}() but "
                        f"never read by det_state()/snapshot/"
                        f"register_metrics and is not allowlisted: "
                        f"unregistered mutable state escapes the "
                        f"determinism chain"
                    ),
                )
            )
        return findings
