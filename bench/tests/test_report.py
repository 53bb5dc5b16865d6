"""``compare`` verdicts on synthetic records."""

import statistics

import report

SPEC = {
    "end_to_end": [
        {"name": "cold_s", "unit": "s", "better": "lower", "bound": 0.1},
        {"name": "sim_kips", "unit": "kinstr/s", "better": "higher",
         "bound": 0.1},
    ]
}


def test_summary_uses_statistics_quartiles():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    s = report.summarize(values)
    assert (s["q1"], s["median"], s["q3"]) == (q1, median, q3)
    assert (s["min"], s["max"], s["n"]) == (1.0, 9.0, 6)
    assert report.summarize([2.0])["median"] == 2.0


def test_verdicts():
    tight = [10.0, 10.1, 9.9, 10.0, 10.05]
    assert report.verdict(tight, [x * 1.2 for x in tight], "lower", 0.1) == "regressed"
    assert report.verdict(tight, [x * 1.02 for x in tight], "lower", 0.1) == "unchanged"
    # Faster in every run: improved, even by less than the bound.
    assert report.verdict(tight, [x * 0.9 for x in tight], "lower", 0.1) == "improved"
    # Higher is better: the same slowdown reads as a regression of throughput.
    assert report.verdict(tight, [x * 0.8 for x in tight], "higher", 0.1) == "regressed"

    wide = [8.0, 9.0, 10.0, 11.0, 12.0]  # parent spread 0.2 > bound
    assert report.verdict(wide, [9.5, 10.5, 10.0, 11.5, 9.0], "lower", 0.1) == "unresolved"
    assert report.verdict(wide, [7.0, 7.5, 7.2, 7.9, 7.1], "lower", 0.1) == "improved"
    assert report.verdict(wide, [x * 1.5 for x in wide], "lower", 0.1) == "regressed"


def _record(cold, kips, failed=0, per_layer=None, cells=None):
    return {"workloads": {"w": {
        "attempted": 10, "failed": failed,
        "end_to_end": {"cold_s": {"samples": cold},
                       "sim_kips": {"samples": kips}},
        "per_layer": per_layer or {},
        "cells": cells or {"00 a": "d1"},
    }}}


def test_compare_flags_regressions_and_failures():
    base = _record([1.0, 1.01, 0.99, 1.0], [50, 50.5, 49.5, 50])
    lines, regressed = report.compare(base, base, SPEC)
    assert not regressed
    assert sum("unchanged" in line for line in lines) == 2

    slow = _record([1.3, 1.31, 1.29, 1.3], [50, 50.5, 49.5, 50])
    lines, regressed = report.compare(base, slow, SPEC)
    assert regressed
    assert any(line.strip().startswith("cold_s") and "regressed" in line
               for line in lines)

    failing = _record([1.0, 1.01, 0.99, 1.0], [50, 50.5, 49.5, 50], failed=1,
                      cells={"00 a": "d2"})
    lines, regressed = report.compare(base, failing, SPEC)
    assert regressed
    assert any("failed runs" in line for line in lines)
    assert any("simulated results changed in: 00 a" in line for line in lines)


def _layers(**values):
    units = {"calls": "count", "_us": "us", "_s": "s"}
    out = {}
    for name, value in values.items():
        unit = next(u for suffix, u in units.items() if name.endswith(suffix))
        out[name.replace("__", ".")] = {"value": value, "unit": unit}
    return out


def test_layer_changes_name_counts_and_the_slowest_layer():
    parent = _layers(cpu__self_s=1.0, sched__self_s=0.1, sched__tcm__select_us=5.0,
                     cpu__step__calls=100, trace__wall_s=2.0)
    change = _layers(cpu__self_s=1.05, sched__self_s=0.9, sched__tcm__select_us=900.0,
                     cpu__step__calls=100, trace__wall_s=2.8)
    diff = report.layer_changes(parent, change)
    assert diff["counts"] == []
    assert [name for name, *_ in diff["slower"]] == [
        "sched.self_s", "sched.tcm.select_us"]
    assert diff["largest"] == "sched"

    change["cpu.step.calls"]["value"] = 101
    lines = report.compare_layers(parent, change)
    assert "count changed: cpu.step.calls 100 -> 101" in lines
    assert "largest self-time increase: sched (+0.8 s)" in lines
