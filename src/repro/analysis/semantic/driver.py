"""Entry point for the semantic analyzer: ``python -m repro analyze``.

Loads the module graph once, runs every semantic pass over it, applies
the shared ``# repro-lint: disable=`` suppression grammar per file
(including ``disable-file=`` headers), and reports findings in the same
``path:line:col: RULE message`` format as the lint pass so editors and
CI treat both uniformly.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis import suppress
from repro.analysis.lint import Finding, iter_python_files
from repro.analysis.semantic.concurrency import ConcurrencyPass
from repro.analysis.semantic.contract import SchedulerContractPass
from repro.analysis.semantic.detcov import StateCoveragePass
from repro.analysis.semantic.domains import CycleDomainPass
from repro.analysis.semantic.effects import EffectPass
from repro.analysis.semantic.modgraph import ModuleGraph

#: rule id -> one-line hazard description (the analyzer's registry).
SEMANTIC_RULES: dict[str, str] = {
    "SEM001": "mixed-domain arithmetic (cpu/dram/ns cycles combined)",
    "SEM002": "mixed-domain comparison (operands on different clocks)",
    "SEM003": "mixed-domain dataflow across a seeded attribute or "
              "parameter boundary",
    "SEM010": "mutable simulator state not covered by det_state()/"
              "telemetry registration",
    "SEM020": "scheduler issue path that never consults an age/"
              "starvation signal",
    "SEM021": "scheduler mutates bank/bus/queue state directly",
    "SEM022": "scheduler missing a required override (select/name)",
    "SEM030": "certified-pure method (det_state/next_wake/can_accept…) "
              "with an undeclared effect",
    "SEM031": "randomness or io inside per-cycle model code",
    "SEM032": "batching shortcut not backed by a current certificate",
    "CONC001": "module-global mutable state written by worker-reachable "
               "code (fork-shared state hazard)",
    "CONC002": "fork-captured resource (handle/lock/RNG/lambda/bound "
               "method) crossing the pool boundary",
    "CONC003": "non-atomic write to a shared on-disk artifact outside "
               "repro.util.atomicio",
    "CONC004": "unpicklable or order-nondeterministic payload reachable "
               "from RunSpec/SimResult",
    "CONC005": "post-fork os.environ read outside a sanctioned "
               "config-snapshot accessor",
}

#: Rule ids the ``--concurrency`` convenience flag selects.
CONCURRENCY_RULES = frozenset(
    rule for rule in SEMANTIC_RULES if rule.startswith("CONC")
)

ALL_PASSES = (
    CycleDomainPass(),
    StateCoveragePass(),
    SchedulerContractPass(),
    EffectPass(),
    ConcurrencyPass(),
)


@dataclass
class AnalysisReport:
    """Outcome of analyzing a set of files."""

    findings: list[Finding] = field(default_factory=list)
    suppressed: list[Finding] = field(default_factory=list)
    files: int = 0
    errors: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.findings and not self.errors


def _partition(
    report: AnalysisReport, findings: list[Finding], sources: dict[str, str]
) -> None:
    """Split raw findings into reported vs suppressed using the shared
    suppression grammar, parsed once per file."""
    maps: dict[str, suppress.SuppressionMap] = {}
    for finding in findings:
        smap = maps.get(finding.path)
        if smap is None:
            smap = suppress.parse_suppressions(sources.get(finding.path, ""))
            maps[finding.path] = smap
        if smap.disabled(finding.line, finding.rule):
            report.suppressed.append(finding)
        else:
            report.findings.append(finding)


def analyze_graph(
    graph: ModuleGraph, select: set[str] | None = None
) -> AnalysisReport:
    report = AnalysisReport(files=len(graph.modules))
    report.errors.extend(graph.errors)
    raw: list[Finding] = []
    for pass_ in ALL_PASSES:
        if select is not None and not (set(pass_.ids) & select):
            continue
        raw.extend(pass_.run(graph))
    if select is not None:
        raw = [f for f in raw if f.rule in select]
    sources = {
        mod.path: mod.source for mod in graph.modules.values()
    }
    _partition(report, raw, sources)
    report.findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    report.suppressed.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return report


def analyze_paths(paths, select: set[str] | None = None) -> AnalysisReport:
    """Analyze every ``*.py`` under the given files/directories as one
    whole-program module graph."""
    graph = ModuleGraph.load(iter_python_files(paths))
    return analyze_graph(graph, select=select)


def analyze_source(
    source: str, path: str = "mod.py", select: set[str] | None = None
) -> AnalysisReport:
    """Analyze one in-memory module (test convenience)."""
    import ast as _ast

    graph = ModuleGraph()
    try:
        tree = _ast.parse(source, filename=path)
    except SyntaxError as exc:
        report = AnalysisReport(files=1)
        report.errors.append(f"{path}: syntax error: {exc}")
        return report
    graph._add_module(Path(path), source, tree)
    return analyze_graph(graph, select=select)


def _default_target() -> list[str]:
    """``src/repro`` relative to this file (works installed or in-tree)."""
    return [str(Path(__file__).resolve().parents[2])]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro analyze",
        description=(
            "whole-program semantic analyzer: cycle domains, det-state "
            "coverage, scheduler contracts (see repro.analysis.semantic)"
        ),
    )
    parser.add_argument("paths", nargs="*",
                        help="files or directories (default: src/repro)")
    parser.add_argument("--select", default=None, metavar="IDS",
                        help="comma-separated rule ids to run (default: all)")
    parser.add_argument("--concurrency", action="store_true",
                        help="run only the process-safety rules "
                             "(CONC001–CONC005; shorthand for --select)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print every rule id and its hazard description")
    parser.add_argument("--show-suppressed", action="store_true",
                        help="also print findings silenced by suppressions")
    parser.add_argument("--batchability", default=None, metavar="PATH",
                        help="also write the batchability-certificate "
                             "report (batchability.json) to PATH")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule_id in sorted(SEMANTIC_RULES):
            print(f"{rule_id}  {SEMANTIC_RULES[rule_id]}")
        return 0

    select = None
    if args.select:
        select = {r.strip().upper() for r in args.select.split(",") if r.strip()}
        unknown = select - set(SEMANTIC_RULES)
        if unknown:
            print(f"unknown rule ids: {', '.join(sorted(unknown))}",
                  file=sys.stderr)
            return 2
    if args.concurrency:
        select = (select or set()) | set(CONCURRENCY_RULES)

    targets = args.paths or _default_target()
    report = analyze_paths(targets, select=select)

    if args.batchability:
        from repro.analysis.semantic.batchability import write_report

        graph = ModuleGraph.load(iter_python_files(targets))
        write_report(graph, args.batchability)

    for finding in report.findings:
        print(finding.render())
    if args.show_suppressed:
        for finding in report.suppressed:
            print(f"[suppressed] {finding.render()}")
    for error in report.errors:
        print(error, file=sys.stderr)
    print(
        f"{report.files} modules, {len(report.findings)} findings, "
        f"{len(report.suppressed)} suppressed"
    )
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
