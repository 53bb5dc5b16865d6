"""Public API surface: imports, registry completeness, docstrings."""

import os
import subprocess
import sys
from pathlib import Path

import pytest


class TestTopLevelExports:
    def test_all_names_importable(self):
        import repro

        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version(self):
        import repro

        assert repro.__version__

    def test_core_exports(self):
        from repro.core import __all__ as names
        import repro.core as core

        for name in names:
            assert hasattr(core, name), name

    def test_import_does_not_load_the_linter(self):
        """Every process that imports the simulator (pool workers, CLI
        calls) would otherwise pay for the linter and argparse."""
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, repro; print('repro.analysis.lint' in sys.modules)"],
            env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True, text=True, check=True,
        )
        assert proc.stdout.strip() == "False"


class TestSchedulerRegistry:
    def test_expected_schedulers(self):
        from repro.sched.registry import SCHEDULERS

        assert set(SCHEDULERS) == {
            "fcfs", "fr-fcfs", "crit-casras", "casras-crit", "ahb", "par-bs",
            "tcm", "tcm+crit", "morse-p", "crit-rl",
        }

    def test_every_entry_implements_the_scheduler_interface(self):
        from repro.sched.base import Scheduler
        from repro.sched.registry import SCHEDULERS

        for key, cls in SCHEDULERS.items():
            assert issubclass(cls, Scheduler), key
            assert cls.select is not Scheduler.select, key
            assert cls.name == key

    def test_factory_builds_fresh_instances(self):
        from repro.sched.registry import make_scheduler_factory

        factory = make_scheduler_factory("fr-fcfs")
        assert factory(0) is not factory(1)

    def test_factory_kwargs_forwarded(self):
        from repro.sched.registry import make_scheduler_factory

        factory = make_scheduler_factory("tcm", threads=4)
        assert factory(0).threads == 4

    def test_unknown_scheduler(self):
        from repro.sched.registry import make_scheduler_factory

        # Deleted schedulers' names are unknown like any other.
        for name in ("bogus", "atlas", "minimalist"):
            with pytest.raises(ValueError, match="unknown scheduler"):
                make_scheduler_factory(name)

    def test_lazy_sched_module_attrs(self):
        import repro.sched as sched

        assert "fr-fcfs" in sched.SCHEDULERS
        with pytest.raises(AttributeError):
            sched.not_a_name


class TestDocstrings:
    @pytest.mark.parametrize("module_name", [
        "repro", "repro.config", "repro.dram.controller", "repro.cpu.core",
        "repro.cache.hierarchy", "repro.core.cbp", "repro.core.critsched",
        "repro.sched.frfcfs", "repro.sched.morse", "repro.workloads.synthetic",
        "repro.sim.system", "repro.experiments.common",
    ])
    def test_modules_documented(self, module_name):
        import importlib

        module = importlib.import_module(module_name)
        assert module.__doc__ and len(module.__doc__) > 40

    def test_public_classes_documented(self):
        from repro.core.cbp import CommitBlockPredictor
        from repro.cpu.core import OutOfOrderCore
        from repro.dram.controller import ChannelController

        for cls in (CommitBlockPredictor, OutOfOrderCore, ChannelController):
            assert cls.__doc__
