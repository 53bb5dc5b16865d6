"""Instruction and trace representation.

Traces are dependency-annotated dynamic instruction streams, stored as
parallel lists for compactness and iteration speed.  Each instruction
carries:

* ``itype``   — one of INT / FP / BRANCH / LOAD / STORE;
* ``pc``      — static instruction id (the CBP/CLPT index input);
* ``addr``    — effective address (loads/stores; 0 otherwise);
* ``dep1``, ``dep2`` — backward distances to producer instructions
  (0 = no dependency); and
* ``misp``    — for branches, whether this dynamic instance mispredicts.
"""

from __future__ import annotations

INT = 0
FP = 1
BRANCH = 2
LOAD = 3
STORE = 4

TYPE_NAMES = {INT: "int", FP: "fp", BRANCH: "branch", LOAD: "load", STORE: "store"}


class Trace:
    """One thread's dynamic instruction stream (parallel-list storage)."""

    # ``_dclass_cache`` is the cores' dispatch-class bytes, computed once
    # per trace (see OutOfOrderCore.__init__).
    __slots__ = ("itypes", "pcs", "addrs", "dep1", "dep2", "misp", "name",
                 "prewarm", "_dclass_cache")

    def __init__(self, name: str = "trace"):
        self.name = name
        self.itypes: list[int] = []
        self.pcs: list[int] = []
        self.addrs: list[int] = []
        self.dep1: list[int] = []
        self.dep2: list[int] = []
        self.misp: list[bool] = []
        # Cache pre-warm hints: (base, bytes, level) ranges, where level 1
        # means "resident in this thread's L1 and the L2" and level 2 means
        # "resident in the L2 only".  Models the paper's one-billion-
        # instruction fast-forward before measurement.
        self.prewarm: list[tuple[int, int, int]] = []

    def append(self, itype, pc, addr=0, dep1=0, dep2=0, misp=False) -> None:
        if dep1 < 0 or dep2 < 0:
            raise ValueError("dependency distances must be non-negative")
        self.itypes.append(itype)
        self.pcs.append(pc)
        self.addrs.append(addr)
        self.dep1.append(dep1)
        self.dep2.append(dep2)
        self.misp.append(misp)

    def __len__(self) -> int:
        return len(self.itypes)

    def instruction(self, i: int):
        """(itype, pc, addr, dep1, dep2, misp) for instruction ``i``."""
        return (
            self.itypes[i],
            self.pcs[i],
            self.addrs[i],
            self.dep1[i],
            self.dep2[i],
            self.misp[i],
        )

    def count_type(self, itype: int) -> int:
        return sum(1 for t in self.itypes if t == itype)

    def static_pcs(self, itype: int | None = None) -> set[int]:
        """Distinct PCs, optionally restricted to one instruction type."""
        if itype is None:
            return set(self.pcs)
        return {pc for t, pc in zip(self.itypes, self.pcs) if t == itype}
