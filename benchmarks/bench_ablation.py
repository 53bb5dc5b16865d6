"""Benchmark: ablations — counter modes and excluded predictors
(reproduction extension)."""

from repro.experiments import ablation

from conftest import run_and_report


def bench_ablation(benchmark):
    run_and_report(benchmark, ablation.run)
