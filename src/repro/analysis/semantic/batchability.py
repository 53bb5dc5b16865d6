"""Batchability certificates for the per-cycle hot path.

Derives, from the effect summaries of
:mod:`repro.analysis.semantic.effects`, a machine-readable report
(``batchability.json``) classifying every per-cycle hook on the
simulator's hot classes and on every concrete scheduler:

* ``window-invariant`` — safe to evaluate once per ready-window;
* ``monotone-accumulating`` — safe to batch with a closed-form fold
  (all mutations are additive accumulations);
* ``per-cycle-only`` — must keep running every cycle.

The upcoming batching PR must cite these certificates with
``# repro-batch: cert=<Class.method>`` markers (written without the
angle brackets) at each shortcut site;
SEM032 rejects markers whose cited method is (or has become)
per-cycle-only, so a model change that invalidates a certificate
breaks the build instead of silently breaking bit-identity.

CLI: ``python -m repro analyze --batchability batchability.json``.
"""

from __future__ import annotations

import ast
import json
from pathlib import Path

from repro.analysis.semantic.effects import (
    FnEffects,
    classify,
    infer_effects,
)
from repro.analysis.semantic.modgraph import ClassInfo, ModuleGraph

#: Per-cycle hooks certified on each hot simulator class.
HOOK_TABLE: dict[str, tuple[str, ...]] = {
    "OutOfOrderCore": (
        "step", "step_window", "skip_plan", "begin_skip", "wake_skip",
        "flush_skip", "det_state", "_do_dispatch", "_do_commit",
        "_do_load_issues", "_do_dispatch_window", "_do_commit_window",
    ),
    "MemoryHierarchy": ("load", "store", "can_accept_store", "det_state"),
    "ChannelController": (
        "step", "next_wake", "next_wake_window", "enqueue",
        "account_window", "can_accept", "pending", "det_state",
    ),
    "MemorySystem": (
        "step", "step_window", "settle_idle", "try_enqueue", "presettle",
        "pending", "wake_cpu",
    ),
}

#: Hooks certified on every concrete scheduler.
SCHEDULER_HOOKS = (
    "select", "pre_admissible", "admissible", "on_enqueue",
    "on_command", "det_state",
)


def _entry(
    graph: ModuleGraph,
    table: dict[str, FnEffects],
    cls: ClassInfo,
    name: str,
) -> dict | None:
    func = graph.lookup_method(cls, name)
    if func is None:
        return None
    eff = table.get(func.qualname, FnEffects())
    return {
        "class": cls.qualname,
        "method": name,
        "defined_in": func.qualname,
        "classification": classify(eff),
        "effects": {
            "mutates": sorted(eff.mutates),
            "foreign": sorted(eff.foreign),
            "rng": eff.rng,
            "io": eff.io,
            "cycle_dependent": eff.cycle,
            "monotone": bool(
                (eff.mutates or eff.foreign) and not eff.nonmonotone
            ),
        },
        "path": func.module.path,
        "line": func.node.lineno,
    }


def _find_class(graph: ModuleGraph, bare: str) -> ClassInfo | None:
    bucket = [cls for cls in graph.all_classes() if cls.name == bare]
    return bucket[0] if len(bucket) == 1 else None


def _scheduler_name(graph: ModuleGraph, cls: ClassInfo) -> str:
    """The ``name = "..."`` registry identity, through the MRO."""
    for c in graph.mro(cls):
        for stmt in c.node.body:
            if not isinstance(stmt, ast.Assign):
                continue
            for target in stmt.targets:
                if (
                    isinstance(target, ast.Name)
                    and target.id == "name"
                    and isinstance(stmt.value, ast.Constant)
                    and isinstance(stmt.value.value, str)
                ):
                    return stmt.value.value
    return cls.name


def build_report(
    graph: ModuleGraph, table: dict[str, FnEffects] | None = None
) -> dict:
    """Certificates for every hot-class and scheduler hook in the graph."""
    if table is None:
        table = infer_effects(graph)
    classes: dict[str, dict] = {}
    for cls_name in sorted(HOOK_TABLE):
        cls = _find_class(graph, cls_name)
        if cls is None:
            continue
        entries = {}
        for hook in HOOK_TABLE[cls_name]:
            entry = _entry(graph, table, cls, hook)
            if entry is not None:
                entries[hook] = entry
        classes[cls_name] = entries
    schedulers: dict[str, dict] = {}
    for cls in graph.all_classes():
        if not graph.is_subclass_of(cls, "Scheduler"):
            continue
        if cls.name == "Scheduler" or cls.name.startswith("_"):
            continue
        entries = {}
        for hook in SCHEDULER_HOOKS:
            entry = _entry(graph, table, cls, hook)
            if entry is not None:
                entries[hook] = entry
        schedulers[_scheduler_name(graph, cls)] = entries
    return {"version": 1, "classes": classes, "schedulers": schedulers}


def write_report(graph: ModuleGraph, out_path: str | Path) -> dict:
    """Build and write ``batchability.json``; returns the report."""
    report = build_report(graph)
    Path(out_path).write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n"
    )
    return report
