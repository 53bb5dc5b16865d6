"""Whole-program semantic analyzer: rules, fixtures, and the repo contract.

Three layers:

* unit tests of the shared infrastructure (module graph, CFG,
  suppressions) on inline sources;
* the seeded-fixture contract — every SEM rule fires on its module in
  ``tests/fixtures/semantic_hazards/`` and stays silent on the clean
  counter-examples;
* the repo contract — ``src/repro`` analyzes clean at HEAD, and an
  unregistered mutable field injected into a copy of the real
  ``ChannelController`` is caught (the det-state audit does real work,
  not just fixture work).
"""

from __future__ import annotations

import shutil
import textwrap
from pathlib import Path

import pytest

from repro.analysis.lint import iter_python_files
from repro.analysis.semantic import (
    SEMANTIC_RULES,
    analyze_paths,
    analyze_source,
    main,
)
from repro.analysis.semantic.batchability import build_report
from repro.analysis.semantic.cfg import build_cfg, reachable_avoiding
from repro.analysis.semantic.domains import (
    ATTR_SEEDS,
    CPU,
    DRAM,
    NS,
    CycleDomainPass,
    seed_attr_domains_from_types,
)
from repro.analysis.semantic.effects import classify, infer_effects
from repro.analysis.semantic.modgraph import ModuleGraph, module_name_for
from repro.analysis.suppress import known_rule_ids, parse_suppressions

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src" / "repro"
FIXTURES = REPO / "tests" / "fixtures" / "semantic_hazards"


def rules_by_file(report):
    out: dict[str, set[str]] = {}
    for f in report.findings:
        out.setdefault(Path(f.path).name, set()).add(f.rule)
    return out


# --------------------------------------------------------------- infrastructure


class TestModuleGraph:
    def test_module_name_is_position_independent(self, tmp_path):
        pkg = tmp_path / "somewhere" / "repro" / "dram"
        pkg.mkdir(parents=True)
        for d in (pkg.parent, pkg):
            (d / "__init__.py").write_text("")
        mod = pkg / "bank.py"
        mod.write_text("x = 1\n")
        assert module_name_for(mod) == "repro.dram.bank"

    def test_mro_resolves_across_modules(self, tmp_path):
        pkg = tmp_path / "p"
        pkg.mkdir()
        (pkg / "__init__.py").write_text("")
        (pkg / "base.py").write_text("class Base:\n    def f(self): pass\n")
        (pkg / "sub.py").write_text(
            "from p.base import Base\n\nclass Sub(Base):\n    pass\n"
        )
        graph = ModuleGraph.load(sorted(pkg.rglob("*.py")))
        sub = graph.classes["p.sub.Sub"]
        assert [c.name for c in graph.mro(sub)] == ["Sub", "Base"]
        assert graph.lookup_method(sub, "f") is not None
        assert graph.is_subclass_of(sub, "Base")

    def test_syntax_error_is_an_error_not_a_crash(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("def broken(:\n")
        graph = ModuleGraph.load([bad])
        assert graph.errors and not graph.modules


class TestCfg:
    def test_every_path_must_pass_a_guard(self):
        src = textwrap.dedent("""
            def f(xs):
                for x in xs:
                    if x.ok:
                        return x
                return None
        """)
        import ast

        fn = ast.parse(src).body[0]
        cfg = build_cfg(fn)
        assert len(cfg.returns()) == 2
        # Both returns are reachable with nothing blocked.
        assert all(r in reachable_avoiding(cfg, set()) for r in cfg.returns())
        # Blocking the loop header blocks everything downstream of it —
        # including the fall-through return, whose only path re-enters
        # the header to test the exhausted iterator.
        loop = {n for n in cfg.nodes if n.kind == "loop"}
        assert loop
        assert not any(r in reachable_avoiding(cfg, loop)
                       for r in cfg.returns())
        # Blocking only the if-branch keeps the fall-through return live
        # but cuts off the in-loop return.
        branch = {n for n in cfg.nodes if n.kind == "branch"}
        assert branch
        live = [r for r in cfg.returns()
                if r in reachable_avoiding(cfg, branch)]
        assert len(live) == 1


class TestSuppressParsing:
    def test_file_wide_and_line_mentions(self):
        smap = parse_suppressions(
            "# repro-lint: disable-file=SEM001 rationale\n"
            "x = 1  # repro-lint: disable=SEM020\n"
        )
        assert smap.disabled(99, "SEM001")
        assert smap.disabled(2, "SEM020")
        assert not smap.disabled(1, "SEM020")
        assert {r for _, r in smap.mentions} == {"SEM001", "SEM020"}

    def test_known_rule_ids_cover_both_tools(self):
        known = known_rule_ids()
        assert "DET001" in known
        assert "SUP001" in known
        assert set(SEMANTIC_RULES) <= known


# ------------------------------------------------------------- seeded fixtures


class TestHazardFixtures:
    @pytest.fixture(scope="class")
    def report(self):
        return analyze_paths([FIXTURES])

    def test_exit_state(self, report):
        assert not report.ok
        assert not report.errors

    def test_every_sem_rule_fires(self, report):
        # The CONC rules live in tests/fixtures/conc_hazards (see
        # test_concurrency_analyzer.py); together the two hazard
        # packages must exercise the full registry.
        conc = analyze_paths([FIXTURES.parent / "conc_hazards"])
        fired = {f.rule for f in report.findings}
        fired |= {f.rule for f in conc.findings}
        assert fired == set(SEMANTIC_RULES)
        sem_only = {f.rule for f in report.findings}
        assert sem_only == {
            r for r in SEMANTIC_RULES if r.startswith("SEM")
        }

    def test_rule_by_rule_file_mapping(self, report):
        by_file = rules_by_file(report)
        assert by_file["sem001_mixed_arith.py"] == {"SEM001"}
        assert by_file["sem002_mixed_compare.py"] == {"SEM002"}
        assert by_file["sem003_mixed_dataflow.py"] == {"SEM003"}
        assert by_file["sem010_uncovered_state.py"] == {"SEM010"}
        assert by_file["sem020_unguarded_issue.py"] == {"SEM020"}
        assert by_file["sem021_direct_mutation.py"] == {"SEM021"}
        assert by_file["sem022_missing_override.py"] == {"SEM022"}
        assert by_file["sem030_undeclared_mutation.py"] == {"SEM030"}
        assert by_file["sem031_rng_in_hook.py"] == {"SEM031"}
        assert by_file["sem032_uncertified_batch.py"] == {"SEM032"}

    def test_clean_counter_examples_stay_clean(self, report):
        by_file = rules_by_file(report)
        for name in ("clean.py", "_base.py", "__init__.py", "suppressed.py"):
            assert name not in by_file, by_file.get(name)

    def test_suppressed_finding_is_counted_not_reported(self, report):
        sup = [f for f in report.suppressed
               if Path(f.path).name == "suppressed.py"]
        assert [f.rule for f in sup] == ["SEM001"]

    def test_sem010_names_the_field(self, report):
        f = next(f for f in report.findings if f.rule == "SEM010")
        assert "sneaky_counter" in f.message

    def test_sem022_both_clauses(self, report):
        msgs = [f.message for f in report.findings if f.rule == "SEM022"]
        assert any("name" in m for m in msgs)
        assert any("select" in m for m in msgs)

    def test_sem020_mention_without_ordering_still_fires(self, report):
        # AgeLoggingScheduler sums txn.seq into a stat but never orders
        # by it; a token mention alone must not satisfy the guard.
        msgs = [f.message for f in report.findings if f.rule == "SEM020"]
        assert any("AgeLoggingScheduler" in m for m in msgs)
        assert any("GreedyRowHitScheduler" in m for m in msgs)

    def test_sem020_key_helper_ordering_counts_as_guard(self, tmp_path):
        # The TCM shape: the ordering comparison is on a local returned
        # by an age-bearing self-helper.  Must stay clean.
        mod = tmp_path / "mod.py"
        mod.write_text(textwrap.dedent("""
            class Scheduler:
                def select(self, candidates, controller, now):
                    raise NotImplementedError

            class KeyHelperScheduler(Scheduler):
                name = "key-helper"

                def _key(self, cand):
                    return (not cand.is_cas, cand.txn.seq)

                def select(self, candidates, controller, now):
                    best = None
                    best_key = None
                    for cand in candidates:
                        key = self._key(cand)
                        if best is None or key < best_key:
                            best = cand
                            best_key = key
                    return best
        """))
        report = analyze_paths([tmp_path])
        assert not [f for f in report.findings if f.rule == "SEM020"]


# ---------------------------------------------------------------- repo contract


class TestRepoContract:
    def test_src_repro_is_clean_at_head(self):
        report = analyze_paths([SRC])
        assert report.files > 80
        assert not report.errors
        assert not report.findings, "\n".join(
            f.render() for f in report.findings
        )

    def test_cli_exit_codes(self):
        assert main([str(SRC)]) == 0
        assert main([str(FIXTURES)]) == 1

    def test_cli_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in SEMANTIC_RULES:
            assert rule in out

    def test_select_filters_passes(self):
        report = analyze_paths([FIXTURES], select={"SEM021"})
        assert {f.rule for f in report.findings} == {"SEM021"}

    def test_injected_controller_field_is_caught(self, tmp_path):
        """The audit catches new unregistered state on the REAL controller.

        Copies src/repro wholesale (module names derive from the
        __init__.py chain, so the copy analyzes identically), injects a
        mutable field into ChannelController.enqueue, and expects SEM010
        to name it.
        """
        tree = tmp_path / "repro"
        shutil.copytree(SRC, tree)
        controller = tree / "dram" / "controller.py"
        source = controller.read_text()
        anchor = "txn.seq = self._seq"
        assert anchor in source
        source = source.replace(
            anchor, anchor + "\n        self.sneaky_probe = txn.seq", 1
        )
        controller.write_text(source)

        baseline = analyze_paths([tree.parent])  # sanity: only our injection
        assert [f.rule for f in baseline.findings] == ["SEM010"]
        finding = baseline.findings[0]
        assert "ChannelController" in finding.message
        assert "sneaky_probe" in finding.message

    def test_injected_purity_violation_caught_by_sem030(self, tmp_path):
        """A mutation smuggled into a certified-pure method is caught.

        ``next_wake`` carries a window-invariance certificate; bumping
        the (det_state-covered, so SEM010-silent) ``_seq`` counter
        inside it must trip SEM030 — both on ``next_wake`` itself and,
        via interprocedural propagation, on ``next_wake_window`` (also
        certified pure), whose slow path calls it — and nothing else.
        """
        tree = tmp_path / "repro"
        shutil.copytree(SRC, tree)
        controller = tree / "dram" / "controller.py"
        source = controller.read_text()
        anchor = ("if self.read_queue or self.write_queue "
                  "or any(self._refresh_due):")
        assert source.count(anchor) == 1
        source = source.replace(
            anchor, "self._seq += 1\n        " + anchor, 1
        )
        controller.write_text(source)
        report = analyze_paths([tree.parent])
        assert [f.rule for f in report.findings] == ["SEM030", "SEM030"]
        flagged = {f.message.split("(")[0] for f in report.findings}
        for finding in report.findings:
            assert "_seq" in finding.message
        assert any("next_wake_window" in f.message for f in report.findings)
        assert len(flagged) == 2

    def test_injected_field_becomes_clean_when_registered(self, tmp_path):
        """Folding the injected field into det_state() clears the finding."""
        tree = tmp_path / "repro"
        shutil.copytree(SRC, tree)
        controller = tree / "dram" / "controller.py"
        source = controller.read_text()
        anchor = "txn.seq = self._seq"
        source = source.replace(
            anchor, anchor + "\n        self.sneaky_probe = txn.seq", 1
        )
        det_anchor = "values += self.timing.det_state()"
        assert det_anchor in source
        source = source.replace(
            det_anchor,
            "values.append(self.sneaky_probe)\n        " + det_anchor,
            1,
        )
        controller.write_text(source)
        report = analyze_paths([tree.parent])
        assert not report.findings


# ------------------------------------------------------ type-domain seeding


class TestTypeDomainSeeding:
    """Cycle-domain seeds harvested from the unit-bearing type aliases
    (``DramCycles``/``CpuCycles``/``Nanos`` in :mod:`repro.config`)
    rather than hand-written name tables."""

    def _graph(self, tmp_path, body):
        mod = tmp_path / "mod.py"
        mod.write_text(textwrap.dedent(body))
        return ModuleGraph.load([mod])

    def test_src_annotations_seed_the_timing_fields(self):
        graph = ModuleGraph.load(iter_python_files([SRC]))
        seeds = seed_attr_domains_from_types(graph)
        # Dataclass field, optional field, property return, annotated
        # instance attribute — one of each spelling.
        assert seeds["tRCD"] == DRAM
        assert seeds["tFAW"] == DRAM  # DramCycles | None
        assert seeds["effective_tFAW"] == DRAM  # property return
        assert seeds["_tFAW"] == DRAM  # self._tFAW: DramCycles = ...
        assert seeds["refresh_interval_us"] == NS
        # The hand-written table no longer duplicates the annotations.
        assert "tRCD" not in ATTR_SEEDS
        assert "effective_tFAW" not in ATTR_SEEDS

    def test_renamed_annotated_field_keeps_its_clock(self, tmp_path):
        # The point of type-based seeding: rename a timing field and the
        # analyzer still knows its clock, with no seed-table edit.
        graph = self._graph(tmp_path, """
            DramCycles = int

            class Timings:
                t_renamed: DramCycles = 7

            class Uses:
                def f(self, timing, cpu_now):
                    return cpu_now + timing.t_renamed
        """)
        assert "t_renamed" not in ATTR_SEEDS
        findings = CycleDomainPass().run(graph)
        assert [f.rule for f in findings] == ["SEM001"]

    def test_annotation_spellings(self, tmp_path):
        graph = self._graph(tmp_path, """
            from typing import Optional

            class C:
                a: "DramCycles"
                b: Optional[CpuCycles] = None
                c: Nanos | None = None

                def __init__(self):
                    self.inst: CpuCycles = 0

                @property
                def derived(self) -> DramCycles:
                    return self.a

                def plain(self) -> DramCycles:
                    return self.a
        """)
        seeds = seed_attr_domains_from_types(graph)
        assert seeds["a"] == DRAM
        assert seeds["b"] == CPU
        assert seeds["c"] == NS
        assert seeds["inst"] == CPU
        assert seeds["derived"] == DRAM
        # Only *properties* read like attributes; a plain method's
        # return annotation must not seed its name.
        assert "plain" not in seeds

    def test_conflicting_annotations_drop_the_seed(self, tmp_path):
        graph = self._graph(tmp_path, """
            DramCycles = int
            CpuCycles = int

            class A:
                dual: DramCycles = 1

            class B:
                dual: CpuCycles = 2

            class D:
                solo: DramCycles = 3
        """)
        seeds = seed_attr_domains_from_types(graph)
        assert "dual" not in seeds
        assert seeds["solo"] == DRAM


# ---------------------------------------------------------- effect inference


class TestEffectInference:
    @pytest.fixture(scope="class")
    def table(self, tmp_path_factory):
        mod = tmp_path_factory.mktemp("effects") / "mod.py"
        mod.write_text(textwrap.dedent("""
            class M:
                def __init__(self):
                    self.total = 0
                    self.seen = []

                def peek(self):
                    return self.total

                def bump(self):
                    self.total += 1

                def absorb(self, x):
                    self.seen.append(x)

                def relay(self):
                    self.bump()

                def draw(self):
                    return self._rng.random()

                def report(self):
                    print(self.total)

            class Helper:
                def poke(self, controller):
                    controller.read_queue.append(1)
        """))
        graph = ModuleGraph.load([mod])
        return infer_effects(graph)

    def test_pure_reader_is_window_invariant(self, table):
        eff = table["mod.M.peek"]
        assert eff.pure
        assert classify(eff) == "window-invariant"

    def test_additive_mutation_is_monotone(self, table):
        eff = table["mod.M.bump"]
        assert "total" in eff.mutates
        assert classify(eff) == "monotone-accumulating"

    def test_container_mutation_is_per_cycle_only(self, table):
        assert classify(table["mod.M.absorb"]) == "per-cycle-only"

    def test_effects_propagate_through_self_calls(self, table):
        eff = table["mod.M.relay"]
        assert "total" in eff.mutates
        assert classify(eff) == "monotone-accumulating"

    def test_rng_and_io_demote_to_per_cycle_only(self, table):
        assert table["mod.M.draw"].rng
        assert table["mod.M.report"].io
        assert classify(table["mod.M.draw"]) == "per-cycle-only"
        assert classify(table["mod.M.report"]) == "per-cycle-only"

    def test_foreign_mutation_is_tracked(self, table):
        eff = table["mod.Helper.poke"]
        assert any("read_queue" in d for d in eff.foreign)
        assert classify(eff) == "per-cycle-only"


#: The full registry the report must classify (ROADMAP scheduler set).
SCHEDULER_NAMES = {
    "ahb", "atlas", "casras-crit", "crit-casras", "crit-rl", "fcfs",
    "fr-fcfs", "minimalist", "morse-p", "par-bs", "tcm", "tcm+crit",
}


class TestBatchabilityReport:
    @pytest.fixture(scope="class")
    def report(self):
        graph = ModuleGraph.load(iter_python_files([SRC]))
        return build_report(graph)

    def test_every_hot_class_is_certified(self, report):
        assert set(report["classes"]) == {
            "ChannelController", "MemoryHierarchy", "MemorySystem",
            "OutOfOrderCore",
        }

    def test_every_scheduler_is_certified(self, report):
        assert set(report["schedulers"]) == SCHEDULER_NAMES
        for name, hooks in report["schedulers"].items():
            assert "select" in hooks, name
            assert "det_state" in hooks, name

    def test_known_certificates_hold(self, report):
        cc = report["classes"]["ChannelController"]
        assert cc["next_wake"]["classification"] == "window-invariant"
        assert cc["can_accept"]["classification"] == "window-invariant"
        assert cc["account_window"]["classification"] == "monotone-accumulating"
        assert cc["step"]["classification"] == "per-cycle-only"
        core = report["classes"]["OutOfOrderCore"]
        assert core["skip_plan"]["classification"] == "window-invariant"
        assert core["step"]["classification"] == "per-cycle-only"
        assert (report["schedulers"]["fcfs"]["select"]["classification"]
                == "window-invariant")

    def test_every_entry_is_fully_classified(self, report):
        kinds = {"window-invariant", "monotone-accumulating",
                 "per-cycle-only"}
        groups = list(report["classes"].values())
        groups += list(report["schedulers"].values())
        for hooks in groups:
            for entry in hooks.values():
                assert entry["classification"] in kinds
                assert entry["line"] > 0
                assert entry["path"]


# -------------------------------------------------------------- inline sources


class TestAnalyzeSource:
    def test_mixed_arith_inline(self):
        report = analyze_source(
            "def f(cpu_now, dram_now):\n    return cpu_now - dram_now\n"
        )
        assert [f.rule for f in report.findings] == ["SEM001"]

    def test_conversion_is_sanctioned(self):
        report = analyze_source(
            "def f(cpu_now, dram_wake, cpu_ratio):\n"
            "    return cpu_now >= dram_wake * cpu_ratio\n"
        )
        assert not report.findings

    def test_dimensionless_absorbs(self):
        report = analyze_source(
            "def f(cpu_now):\n    return cpu_now + 5\n"
        )
        assert not report.findings
