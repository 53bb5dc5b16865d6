"""Memory transactions: the unit queued at the controller.

A transaction is one cache-line read or write.  Reads carry the
processor-side criticality annotation (the few extra address-bus bits the
paper adds in Section 3.2) plus bookkeeping used by the comparison
schedulers (thread id, arrival order) and by the statistics machinery.
"""

from __future__ import annotations

from repro.dram.addressmap import DramLocation


class Transaction:
    """One DRAM read or write request.

    Attributes:
        address: physical byte address of the line.
        loc: decomposed DRAM coordinates.
        is_write: write transactions come from dirty L2 evictions.
        core: issuing core id (-1 for writes with no attributable core).
        critical: processor-side criticality flag.
        magnitude: ranked criticality magnitude (0 when binary/uncritical).
        arrival: DRAM-cycle arrival time at the controller.
        seq: global arrival sequence number (the age comparator input).
        callback: invoked as ``callback(dram_cycle_done)`` when the data
            burst completes (reads) or the write is issued to the bank.
        row_hit: filled at CAS time for statistics.
    """

    __slots__ = (
        "address",
        "loc",
        "is_write",
        "core",
        "critical",
        "magnitude",
        "arrival",
        "seq",
        "callback",
        "row_hit",
        "marked",
    )

    def __init__(
        self,
        address: int,
        loc: DramLocation,
        is_write: bool = False,
        core: int = -1,
        critical: bool = False,
        magnitude: int = 0,
        callback=None,
    ):
        self.address = address
        self.loc = loc
        self.is_write = is_write
        self.core = core
        self.critical = critical
        self.magnitude = magnitude
        self.arrival = 0
        self.seq = 0
        self.callback = callback
        self.row_hit = False
        # PAR-BS batch mark; unused by other schedulers.
        self.marked = False

    def __repr__(self):
        kind = "W" if self.is_write else "R"
        crit = f" crit={self.magnitude}" if self.critical else ""
        return f"Txn[{kind} core={self.core} {self.loc}{crit} seq={self.seq}]"
