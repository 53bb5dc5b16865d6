"""Instruction and trace representation.

Traces are dependency-annotated dynamic instruction streams, stored as
parallel typed columns (one ``bytearray`` or ``array`` per field, so an
instruction costs 18 bytes rather than six list slots and their int
objects).  Each instruction carries:

* ``itype``   — one of INT / FP / BRANCH / LOAD / STORE (one byte);
* ``pc``      — static instruction id, the CBP/CLPT index input
  (unsigned 32-bit);
* ``addr``    — effective address, loads/stores only, 0 otherwise
  (unsigned 64-bit);
* ``dep1``, ``dep2`` — backward distances to producer instructions,
  0 = no dependency (unsigned 16-bit); and
* ``misp``    — for branches, whether this dynamic instance mispredicts
  (one byte, 0 or 1).
"""

from __future__ import annotations

from array import array

INT = 0
FP = 1
BRANCH = 2
LOAD = 3
STORE = 4

TYPE_NAMES = {INT: "int", FP: "fp", BRANCH: "branch", LOAD: "load", STORE: "store"}

#: Exclusive upper bounds of the typed columns' fields.
_LIMITS = (
    ("itype", len(TYPE_NAMES)),
    ("pc", 1 << 32),
    ("addr", 1 << 64),
    ("dep1", 1 << 16),
    ("dep2", 1 << 16),
    ("misp", 2),
)


class Trace:
    """One thread's dynamic instruction stream (typed-column storage)."""

    __slots__ = ("itypes", "pcs", "addrs", "dep1", "dep2", "misp", "name",
                 "prewarm")

    def __init__(self, name: str = "trace"):
        self.name = name
        self.itypes = bytearray()
        self.pcs = array("I")
        self.addrs = array("Q")
        self.dep1 = array("H")
        self.dep2 = array("H")
        self.misp = bytearray()
        # Cache pre-warm hints: (base, bytes, level) ranges, where level 1
        # means "resident in this thread's L1 and the L2" and level 2 means
        # "resident in the L2 only".  Models the paper's one-billion-
        # instruction fast-forward before measurement.
        self.prewarm: list[tuple[int, int, int]] = []

    def append(self, itype, pc, addr=0, dep1=0, dep2=0, misp=False) -> None:
        """Add one instruction; a field outside its column's range raises
        ``ValueError`` naming it, before any column grows."""
        values = (itype, pc, addr, dep1, dep2, misp)
        for (field, limit), value in zip(_LIMITS, values):
            if not isinstance(value, int) or not 0 <= value < limit:
                raise ValueError(
                    f"{field} must be an integer in [0, {limit}), got {value!r}"
                )
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
            bool(self.misp[i]),
        )

    def count_type(self, itype: int) -> int:
        return self.itypes.count(itype)

    def static_pcs(self, itype: int | None = None) -> set[int]:
        """Distinct PCs, optionally restricted to one instruction type."""
        if itype is None:
            return set(self.pcs)
        return {pc for t, pc in zip(self.itypes, self.pcs) if t == itype}
