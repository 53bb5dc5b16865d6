"""Multiprogrammed four-application bundles (paper Table 4).

Each bundle mixes processor- (P), cache- (C), and memory-sensitive (M)
SPEC 2000 / NAS programs.  Bundle applications get disjoint PC and address
spaces — they share only the L2 and the memory system.
"""

from __future__ import annotations

from repro.workloads.models import SPEC_APPS
from repro.workloads.synthetic import generate_trace

#: Table 4: bundle name -> application list (order = core assignment).
BUNDLES: dict[str, tuple[str, ...]] = {
    "AELV": ("ammp", "ep", "lu", "vpr"),
    "CMLI": ("crafty", "mesa", "lu", "is"),
    "GAMV": ("mg", "ammp", "mesa", "vpr"),
    "GDPC": ("mg", "mgrid", "parser", "crafty"),
    "GSMV": ("mg", "sp", "mesa", "vpr"),
    "RFEV": ("art", "mcf", "ep", "vpr"),
    "RFGI": ("art", "mcf", "mg", "is"),
    "RGTM": ("art", "mg", "twolf", "mesa"),
}

#: Address-space stride between bundle slots (1 TiB: never overlaps).
_SLOT_SPAN = 1 << 40
#: PC-space stride between bundle slots.
_PC_SPAN = 1 << 20


def bundle_traces(bundle: str, instructions: int, seed: int = 1):
    """Per-core traces for one Table 4 bundle."""
    try:
        apps = BUNDLES[bundle]
    except KeyError:
        raise ValueError(
            f"unknown bundle {bundle!r}; choose from {sorted(BUNDLES)}"
        ) from None
    traces = []
    for slot, app in enumerate(apps):
        model = SPEC_APPS[app]
        traces.append(
            generate_trace(
                model,
                instructions,
                thread_id=0,
                threads=1,
                seed=seed + slot,
                pc_base=slot * _PC_SPAN,
                address_base=slot * _SLOT_SPAN,
            )
        )
    return traces
