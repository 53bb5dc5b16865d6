"""Unit tests for the simulator-specific AST lint pass.

Each rule gets positive cases (the hazard fires), negative cases (the
idiomatic alternative stays clean), and a suppression case.  The seeded
fixture ``tests/fixtures/lint_hazards.py`` then pins the CLI contract:
every rule fires on it, and ``src/repro`` at HEAD is clean.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

from repro.analysis.lint import (
    ALL_RULES,
    RULES_BY_ID,
    lint_paths,
    lint_source,
)

REPO = Path(__file__).resolve().parent.parent
HAZARD_FIXTURE = REPO / "tests" / "fixtures" / "lint_hazards.py"


def rules_hit(source: str, select: set[str] | None = None) -> set[str]:
    report = lint_source(textwrap.dedent(source), select=select)
    assert not report.errors, report.errors
    return {f.rule for f in report.findings}


class TestUnseededRandom:
    def test_module_global_call(self):
        assert "DET001" in rules_hit("""
            import random

            def pick(queue):
                return random.choice(queue)
        """)

    def test_aliased_import(self):
        assert "DET001" in rules_hit("""
            import random as rnd

            def roll():
                return rnd.randint(0, 7)
        """)

    def test_from_import_binds_global(self):
        assert "DET001" in rules_hit("from random import shuffle\n")

    def test_numpy_global(self):
        assert "DET001" in rules_hit("""
            import numpy as np

            def noise(n):
                return np.random.rand(n)
        """)

    def test_seeded_instances_are_clean(self):
        assert "DET001" not in rules_hit("""
            import random
            import numpy as np

            def make(seed):
                rng = random.Random(seed)
                gen = np.random.default_rng(seed)
                return rng.choice([1, 2]), gen
        """)


class TestWallClock:
    def test_time_time(self):
        assert "DET002" in rules_hit("""
            import time

            def stamp():
                return time.time()
        """)

    def test_perf_counter_and_datetime(self):
        hits = rules_hit("""
            import datetime
            import time

            def measure():
                return time.perf_counter(), datetime.datetime.now()
        """)
        assert "DET002" in hits

    def test_from_import(self):
        assert "DET002" in rules_hit("from time import monotonic\n")

    def test_hostclock_module_is_the_sanctioned_exception(self):
        """repro/util/hostclock.py is the single allowlisted module: its
        raw clock reads lint clean, while byte-identical code anywhere
        else (lint_source uses a synthetic path) still fires DET002."""
        hostclock = REPO / "src" / "repro" / "util" / "hostclock.py"
        report = lint_paths([hostclock])
        assert not report.errors
        assert "DET002" not in {f.rule for f in report.findings}
        assert "DET002" in rules_hit(hostclock.read_text())

    def test_raw_perf_counter_outside_hostclock_still_fires(self):
        assert "DET002" in rules_hit("""
            import time

            def wall():
                return time.perf_counter()
        """)

    def test_sleepless_code_is_clean(self):
        assert "DET002" not in rules_hit("""
            def advance(now, step):
                return now + step
        """)


class TestSetIteration:
    def test_set_literal(self):
        assert "DET003" in rules_hit("""
            def first():
                for item in {3, 1, 2}:
                    return item
        """)

    def test_local_set_variable(self):
        assert "DET003" in rules_hit("""
            def drain(items):
                pending = set(items)
                for txn in pending:
                    yield txn
        """)

    def test_set_comprehension_in_genexp(self):
        assert "DET003" in rules_hit("""
            def ids(txns):
                return [t for t in {x.core for x in txns}]
        """)

    def test_set_union_expression(self):
        assert "DET003" in rules_hit("""
            def both(a):
                reads = set(a)
                writes = set(a)
                for txn in reads | writes:
                    yield txn
        """)

    def test_sorted_set_is_clean(self):
        assert "DET003" not in rules_hit("""
            def drain(items):
                pending = set(items)
                for txn in sorted(pending):
                    yield txn
        """)

    def test_list_iteration_is_clean(self):
        assert "DET003" not in rules_hit("""
            def drain(items):
                for txn in list(items):
                    yield txn
        """)


class TestDictOrder:
    def test_os_environ_for_loop(self):
        assert "DET004" in rules_hit("""
            import os

            def first_key():
                for key in os.environ:
                    return key
        """)

    def test_environ_items_view(self):
        assert "DET004" in rules_hit("""
            import os

            def pairs():
                return [(k, v) for k, v in os.environ.items()]
        """)

    def test_from_import_environ(self):
        assert "DET004" in rules_hit("""
            from os import environ

            def keys():
                return [k for k in environ]
        """)

    def test_vars_and_dict_views(self):
        hits = rules_hit("""
            def dump(obj):
                for name in vars(obj):
                    yield name
                for name, value in obj.__dict__.items():
                    yield name, value
        """)
        assert "DET004" in hits

    def test_globals_iteration(self):
        assert "DET004" in rules_hit("""
            def names():
                return [n for n in globals()]
        """)

    def test_sorted_wrapping_is_clean(self):
        assert "DET004" not in rules_hit("""
            import os

            def first_key(obj):
                for key in sorted(os.environ):
                    return key
                for name in sorted(vars(obj)):
                    return name
        """)

    def test_ordinary_dict_iteration_is_clean(self):
        assert "DET004" not in rules_hit("""
            def drain(queues):
                for name, queue in queues.items():
                    yield name, len(queue)
        """)

    def test_name_bound_dict_view_is_clean(self):
        # Direct-iteration rule only: a __dict__ view bound to a name and
        # then sorted (the sim/stats.py idiom) must stay clean.
        assert "DET004" not in rules_hit("""
            def freeze(obj):
                items = obj.__dict__.items()
                return tuple(sorted((k, v) for k, v in items))
        """)


class TestMutableDefault:
    def test_list_literal_default(self):
        assert "ARG001" in rules_hit("""
            def record(value, log=[]):
                log.append(value)
                return log
        """)

    def test_dict_and_set_defaults(self):
        hits = rules_hit("""
            def tally(key, counts={}, seen=set()):
                counts[key] = counts.get(key, 0) + 1
                seen.add(key)
        """)
        assert "ARG001" in hits

    def test_constructor_call_default(self):
        assert "ARG001" in rules_hit("""
            from collections import deque

            def buffer(item, ring=deque()):
                ring.append(item)
        """)

    def test_kwonly_default(self):
        assert "ARG001" in rules_hit("""
            def run(*, hooks=[]):
                return hooks
        """)

    def test_none_default_is_clean(self):
        assert "ARG001" not in rules_hit("""
            def record(value, log=None):
                if log is None:
                    log = []
                log.append(value)
                return log
        """)

    def test_immutable_defaults_are_clean(self):
        assert "ARG001" not in rules_hit("""
            def make(a=0, b="x", c=(1, 2), d=None, e=frozenset()):
                return a, b, c, d, e
        """)


class TestFloatCycle:
    def test_true_division_into_cycle_name(self):
        assert "FLT001" in rules_hit("""
            def midpoint(a, b):
                wake_cycle = (a + b) / 2
                return wake_cycle
        """)

    def test_augmented_division(self):
        assert "FLT001" in rules_hit("""
            def halve(now):
                now /= 2
                return now
        """)

    def test_float_literal(self):
        assert "FLT001" in rules_hit("""
            def pad(self, base):
                self.ready = base + 1.5
        """)

    def test_int_wrapped_is_clean(self):
        assert "FLT001" not in rules_hit("""
            def midpoint(a, b):
                wake_cycle = int((a + b) / 2)
                other_cycle = (a + b) // 2
                return wake_cycle, other_cycle
        """)

    def test_non_cycle_names_are_clean(self):
        assert "FLT001" not in rules_hit("""
            def ratio(a, b):
                ipc = a / b
                return ipc
        """)


class TestRawPersistence:
    def test_pre_fix_run_log_append_is_flagged(self):
        """The buffered run-log append that interleaved records across
        workers, as it stood before moving onto atomicio."""
        assert "IO001" in rules_hit("""
            import json
            import os

            def _write_run_log(metrics) -> None:
                path = os.environ.get("REPRO_RUN_LOG")
                if not path or not metrics:
                    return
                try:
                    with open(path, "a") as fh:
                        for metric in metrics:
                            fh.write(json.dumps(metric) + "\\n")
                except OSError:
                    return
        """)

    def test_aliased_os_replace_and_rename(self):
        report = lint_source(textwrap.dedent("""
            import os as _os
            from os import rename

            def publish(tmp, target):
                _os.replace(tmp, target)
                rename(tmp, target)
        """), select={"IO001"})
        assert [f.line for f in report.findings] == [6, 7]

    def test_path_open_append(self):
        assert "IO001" in rules_hit("""
            from pathlib import Path

            def log(line):
                with Path("runs.jsonl").open("a") as fh:
                    fh.write(line)
        """)

    def test_mode_keyword(self):
        assert "IO001" in rules_hit("""
            def log(path, line):
                with open(path, mode="ab") as fh:
                    fh.write(line)
        """)

    def test_reads_writes_and_os_open_are_clean(self):
        assert "IO001" not in rules_hit("""
            import os
            from pathlib import Path

            def io(path, text):
                with open(path) as fh:
                    fh.read()
                with open(path, "w") as fh:
                    fh.write(text)
                Path(path).open("rb").close()
                os.close(os.open("data.bin", os.O_RDONLY))
                return text.replace("a", "b")
        """)

    def test_atomicio_module_is_the_sanctioned_exception(self):
        """repro/util/atomicio.py is the single allowlisted module: its
        raw os.replace lints clean there, while the same source anywhere
        else (lint_source uses a synthetic path) fires IO001."""
        atomicio = REPO / "src" / "repro" / "util" / "atomicio.py"
        report = lint_paths([atomicio])
        assert not report.errors
        assert "IO001" not in {f.rule for f in report.findings}
        assert "IO001" in rules_hit(atomicio.read_text())


class TestExceptionRules:
    def test_bare_except(self):
        assert "EXC001" in rules_hit("""
            def run(action):
                try:
                    action()
                except:
                    return None
        """)

    def test_silent_handler(self):
        assert "EXC002" in rules_hit("""
            def run(action):
                try:
                    action()
                except ValueError:
                    pass
        """)

    def test_docstring_plus_pass_is_still_silent(self):
        assert "EXC002" in rules_hit("""
            def run(action):
                try:
                    action()
                except ValueError:
                    '''tolerated'''
                    ...
        """)

    def test_handled_exception_is_clean(self):
        hits = rules_hit("""
            def run(action, log):
                try:
                    action()
                except ValueError as exc:
                    log.append(exc)
        """)
        assert "EXC001" not in hits and "EXC002" not in hits


class TestSuppression:
    def test_trailing_comment(self):
        report = lint_source(
            "import time\n"
            "t0 = time.time()  # repro-lint: disable=DET002 startup stamp\n"
        )
        assert not report.findings
        assert [f.rule for f in report.suppressed] == ["DET002"]

    def test_line_above_comment(self):
        report = lint_source(
            "import time\n"
            "# repro-lint: disable=DET002 measured on purpose\n"
            "t0 = time.time()\n"
        )
        assert not report.findings
        assert [f.rule for f in report.suppressed] == ["DET002"]

    def test_disable_all(self):
        report = lint_source(
            "import time\n"
            "t0 = time.time()  # repro-lint: disable=all\n"
        )
        assert not report.findings and report.suppressed

    def test_wrong_rule_does_not_suppress(self):
        report = lint_source(
            "import time\n"
            "t0 = time.time()  # repro-lint: disable=DET001\n"
        )
        assert [f.rule for f in report.findings] == ["DET002"]

    def test_suppression_does_not_leak_to_other_lines(self):
        report = lint_source(
            "import time\n"
            "a = time.time()  # repro-lint: disable=DET002\n"
            "b = time.time()\n"
        )
        assert [f.rule for f in report.findings] == ["DET002"]
        assert len(report.suppressed) == 1

    def test_file_wide_disable(self):
        report = lint_source(
            "# repro-lint: disable-file=DET002 benchmarking module\n"
            "import time\n"
            "a = time.time()\n"
            "b = time.time()\n"
        )
        assert not report.findings
        assert [f.rule for f in report.suppressed] == ["DET002", "DET002"]

    def test_file_wide_disable_all(self):
        report = lint_source(
            "# repro-lint: disable-file=all\n"
            "import time\n"
            "a = time.time()\n"
        )
        assert not report.findings and report.suppressed

    def test_unknown_rule_in_suppression_is_an_error(self):
        report = lint_source(
            "import time\n"
            "a = time.time()  # repro-lint: disable=DET002,DET999\n"
        )
        assert [f.rule for f in report.findings] == ["SUP001"]
        assert "DET999" in report.findings[0].message
        assert [f.rule for f in report.suppressed] == ["DET002"]

    def test_unknown_rule_in_file_wide_suppression_is_an_error(self):
        report = lint_source(
            "# repro-lint: disable-file=NOPE123\n"
            "x = 1\n"
        )
        assert [f.rule for f in report.findings] == ["SUP001"]

    def test_semantic_rule_names_are_known_to_lint(self):
        # SEM rules belong to the analyzer, but naming one in a lint
        # suppression must not raise SUP001 — the grammar is shared.
        report = lint_source(
            "x = 1  # repro-lint: disable=SEM001 analyzer-side rationale\n"
        )
        assert not report.findings

    def test_sup001_is_itself_suppressible(self):
        report = lint_source(
            "x = 1  # repro-lint: disable=DET999,SUP001 known-stale\n"
        )
        assert not report.findings
        assert [f.rule for f in report.suppressed] == ["SUP001"]


class TestPerfRules:
    def test_list_alloc_in_hot_loop(self):
        assert "PERF001" in rules_hit("""
            class Core:
                def step(self, now):
                    for unit in self.units:
                        scratch = []
                        scratch.append(unit)
        """)

    def test_alloc_outside_loop_is_clean(self):
        assert "PERF001" not in rules_hit("""
            class Core:
                def step(self, now):
                    scratch = []
                    for unit in self.units:
                        scratch.append(unit)
        """)

    def test_alloc_in_cold_method_is_clean(self):
        assert "PERF001" not in rules_hit("""
            class Core:
                def summarize(self):
                    for unit in self.units:
                        rows = [unit.name]
                        self.emit(rows)
        """)

    def test_while_test_is_per_iteration(self):
        assert "PERF003" in rules_hit("""
            class Core:
                def step(self, now):
                    while now in {1, 2, 3}:
                        now += 1
        """)

    def test_dict_build_in_hot_loop(self):
        assert "PERF003" in rules_hit("""
            class Core:
                def tick(self, events):
                    for ev in events:
                        seen = {"id": ev}
                        self.emit(seen)
        """)

    def test_repeated_chain_fires(self):
        assert "PERF002" in rules_hit("""
            class Sched:
                def select(self, candidates, controller, now):
                    for cand in candidates:
                        if len(controller.read_queue) > 2 and controller.read_queue:
                            return cand
        """)

    def test_hoisted_chain_is_clean(self):
        assert "PERF002" not in rules_hit("""
            class Sched:
                def select(self, candidates, controller, now):
                    queue = controller.read_queue
                    for cand in candidates:
                        if len(queue) > 2 and queue:
                            return cand
        """)

    def test_reassigned_chain_is_exempt(self):
        # self.cursor changes inside the loop; it cannot be hoisted.
        assert "PERF002" not in rules_hit("""
            class Core:
                def step(self, now):
                    for unit in self.units:
                        self.cursor = self.cursor + 1
        """)

    def test_loop_variable_chains_are_exempt(self):
        assert "PERF002" not in rules_hit("""
            class Sched:
                def select(self, candidates, controller, now):
                    for cand in candidates:
                        if cand.txn.seq and cand.txn.critical:
                            return cand
        """)

    def test_pure_method_calls_are_exempt(self):
        assert "PERF002" not in rules_hit("""
            class Core:
                def step(self, now):
                    for unit in self.units:
                        self.poke(unit)
                        self.poke(unit)
        """)

    def test_suppression(self):
        report = lint_source(textwrap.dedent("""
            class Core:
                def step(self, now):
                    for unit in self.units:
                        # repro-lint: disable=PERF001 handoff owns the list
                        box = [unit]
                        self.emit(box)
        """))
        assert not report.findings
        assert [f.rule for f in report.suppressed] == ["PERF001"]

    def test_hot_methods_cover_the_per_cycle_hooks(self):
        from repro.analysis.lint import HOT_METHODS
        from repro.analysis.semantic.effects import PER_CYCLE_HOOKS

        assert PER_CYCLE_HOOKS <= HOT_METHODS


class TestRunner:
    def test_select_filters_rules(self):
        source = "import time\nfor x in {1, 2}:\n    t = time.time()\n"
        report = lint_source(source, select={"DET003"})
        assert {f.rule for f in report.findings} == {"DET003"}

    def test_syntax_error_is_reported_not_raised(self):
        report = lint_source("def broken(:\n")
        assert report.errors and not report.ok

    def test_findings_render_with_location(self):
        report = lint_source("import time\nt = time.time()\n", path="mod.py")
        rendered = report.findings[0].render()
        assert rendered.startswith("mod.py:2:")
        assert "DET002" in rendered

    def test_rule_registry_is_consistent(self):
        assert len(RULES_BY_ID) == len(ALL_RULES)
        for rule in ALL_RULES:
            assert rule.id and rule.title and rule.__class__.__doc__


class TestRepoContract:
    def test_every_rule_fires_on_the_hazard_fixture(self):
        report = lint_paths([HAZARD_FIXTURE])
        assert {f.rule for f in report.findings} == set(RULES_BY_ID)
        assert {f.rule for f in report.suppressed} == {"DET002"}

    def test_cli_exits_nonzero_on_hazards(self):
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "lint", str(HAZARD_FIXTURE)],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 1
        assert "DET001" in proc.stdout
        assert "IO001" in proc.stdout

    def test_src_repro_is_clean_at_head(self):
        report = lint_paths([REPO / "src" / "repro"])
        assert report.files > 40
        assert not report.errors
        assert not report.findings, "\n".join(
            f.render() for f in report.findings
        )
