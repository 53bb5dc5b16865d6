"""Summaries of repeated measurements, and ``compare`` of two result records.

Verdicts follow the project's regression rule: a metric regresses when
the change's median is worse than the parent's by more than the bound
``BENCHMARK.json`` fixes for it (and by more than the parent's own
spread, the quartile distance over the median).  When that spread exceeds
the bound and the change is not worse by more than it, the metric is
*unresolved*, unless every run of the change beats every run of the
parent.
"""

from __future__ import annotations

import statistics

#: A per-layer time that grew by more than this share is reported as slower
#: (per-layer times come from one traced pass, so they are advisory).
LAYER_SLOWER = 0.5
#: ...and, for a layer's total seconds, by more than this share of the
#: traced pass, so that jitter in a layer that costs almost nothing stays
#: quiet.
LAYER_FLOOR = 0.01

TIME_UNITS = ("s", "us")


def summarize(values) -> dict:
    """Median, quartiles (``statistics.quantiles``, n=4), min, max, n."""
    values = list(values)
    if len(values) >= 2:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {
        "median": median, "q1": q1, "q3": q3,
        "min": min(values), "max": max(values), "n": len(values),
    }


def spread(summary: dict) -> float:
    """Quartile distance as a share of the median."""
    return (summary["q3"] - summary["q1"]) / summary["median"]


def verdict(parent, change, better: str, bound: float) -> str:
    """improved / regressed / unchanged / unresolved, for two sample lists."""
    a, b = summarize(parent), summarize(change)
    sign = 1 if better == "lower" else -1
    worse = sign * (b["median"] - a["median"]) / a["median"]
    if better == "lower":
        dominates = max(change) < min(parent)
        separated = b["q3"] < a["q1"]
    else:
        dominates = min(change) > max(parent)
        separated = b["q1"] > a["q3"]
    if dominates:
        return "improved"
    if worse > max(bound, spread(a)):
        return "regressed"
    if spread(a) > bound:
        return "unresolved"
    if -worse > spread(a) and separated:
        return "improved"
    return "unchanged"


def _fmt(summary: dict) -> str:
    return (f"{summary['median']:.4g} [{summary['q1']:.4g}, "
            f"{summary['q3']:.4g}] n={summary['n']}")


def failed_frac(entry: dict) -> float:
    return entry["failed"] / entry["attempted"] if entry["attempted"] else 1.0


def compare(parent: dict, change: dict, spec: dict) -> tuple[list[str], bool]:
    """Lines of the report, and whether the change regressed."""
    end_to_end = {m["name"]: m for m in spec["end_to_end"]}
    lines = []
    regressed = False
    for name in sorted(set(parent["workloads"]) | set(change["workloads"])):
        a = parent["workloads"].get(name)
        b = change["workloads"].get(name)
        lines.append(f"== {name} ==")
        if a is None or b is None:
            lines.append("  only in one record; not compared")
            continue
        if failed_frac(b) > failed_frac(a):
            regressed = True
            lines.append(
                f"  failed runs: {b['failed']}/{b['attempted']} "
                f"(parent {a['failed']}/{a['attempted']})  REGRESSED"
            )
        for metric, m in end_to_end.items():
            sa = a.get("end_to_end", {}).get(metric)
            sb = b.get("end_to_end", {}).get(metric)
            if not sa or not sb:
                continue
            v = verdict(sa["samples"], sb["samples"], m["better"], m["bound"])
            regressed |= v == "regressed"
            lines.append(
                f"  {metric:<18} {_fmt(summarize(sa['samples'])):<36} -> "
                f"{_fmt(summarize(sb['samples'])):<36} {v}"
            )
        lines.extend("  " + line for line in compare_layers(
            a.get("per_layer", {}), b.get("per_layer", {})))
        changed = sorted(
            cell for cell, digest in b.get("cells", {}).items()
            if a.get("cells", {}).get(cell, digest) != digest
        )
        if changed:
            lines.append(f"  simulated results changed in: {', '.join(changed)}")
    return lines, regressed


def layer_changes(parent: dict, change: dict) -> dict:
    """Per-layer differences between two traced passes.

    Returns ``counts`` (every count that changed), ``slower`` (time
    metrics that grew past :data:`LAYER_SLOWER`), ``largest`` (the layer
    whose self time grew most, or None) and ``growth_s`` (by how much).
    """
    counts, slower = [], []
    wall = change.get("trace.wall_s", {}).get("value", 0.0)
    growth = {}
    for name in sorted(set(parent) & set(change)):
        if name.startswith("trace."):
            continue
        old, new = parent[name]["value"], change[name]["value"]
        unit = change[name]["unit"]
        if unit == "count":
            if old != new:
                counts.append((name, old, new))
            continue
        if unit not in TIME_UNITS:
            continue
        if name.endswith(".self_s"):
            growth[name[: -len(".self_s")]] = new - old
        floor = LAYER_FLOOR * wall if unit == "s" else 0.0
        if new > old * (1 + LAYER_SLOWER) and new - old > floor:
            slower.append((name, old, new))
    largest = max(growth, key=growth.get) if growth else None
    if largest is not None and growth[largest] <= 0:
        largest = None
    return {"counts": counts, "slower": slower, "largest": largest,
            "growth_s": growth.get(largest, 0.0)}


def compare_layers(parent: dict, change: dict) -> list[str]:
    if not parent or not change:
        return []
    diff = layer_changes(parent, change)
    lines = []
    for name, old, new in diff["counts"]:
        lines.append(f"count changed: {name} {old} -> {new}")
    for name, old, new in diff["slower"]:
        lines.append(f"slower layer metric: {name} {old:.4g} -> {new:.4g}")
    if diff["largest"]:
        lines.append(f"largest self-time increase: {diff['largest']} "
                     f"(+{diff['growth_s']:.3g} s)")
    if not diff["counts"]:
        lines.append("per-layer counts: all unchanged")
    return lines
