"""Per-bank state machine and timing bookkeeping.

Each bank tracks its open row and the earliest DRAM cycle at which each
command class may legally issue, derived from the DDR3 timing constraints
that are *local to the bank*:

* ACTIVATE after PRECHARGE: tRP
* ACTIVATE after previous ACTIVATE (same bank): tRC
* READ/WRITE after ACTIVATE: tRCD
* PRECHARGE after ACTIVATE: tRAS
* PRECHARGE after READ: tRTP
* PRECHARGE after WRITE: tWL + burst + tWR (write recovery)

Cross-bank and cross-rank constraints (tRRD, tCCD, tWTR, tRTRS, data-bus
occupancy) live in :mod:`repro.dram.channel`.
"""

from __future__ import annotations

from repro.config import DramTimings


class Bank:
    """One DRAM bank: open-row state plus earliest-issue times."""

    __slots__ = (
        "rank",
        "index",
        "open_row",
        "act_ready",
        "cas_ready",
        "pre_ready",
        "_t",
        "opened_by",
        "last_use",
    )

    def __init__(self, rank: int, index: int, timings: DramTimings):
        self.rank = rank
        self.index = index
        self.open_row: int | None = None
        # seq of the transaction whose ACTIVATE opened the current row
        # (-1 when closed): used to classify reads as row-buffer hits.
        self.opened_by = -1
        # Last cycle the open row was touched (ACT or CAS): the open-page
        # policy refuses conflict precharges until the row has idled.
        self.last_use = 0
        # Earliest cycles at which each command class may issue here.
        self.act_ready = 0
        self.cas_ready = 0
        self.pre_ready = 0
        self._t = timings

    # -- state queries -----------------------------------------------------

    def is_open(self) -> bool:
        return self.open_row is not None

    def classify(self, row: int) -> str:
        """'hit' (row open), 'closed' (precharged), or 'conflict'."""
        if self.open_row is None:
            return "closed"
        return "hit" if self.open_row == row else "conflict"

    # -- command effects ---------------------------------------------------

    def do_activate(self, row: int, now: int, opened_by: int = -1) -> None:
        """Open ``row``; caller has verified ``now >= act_ready``."""
        t = self._t
        self.open_row = row
        self.opened_by = opened_by
        self.last_use = now
        self.cas_ready = max(self.cas_ready, now + t.tRCD)
        self.pre_ready = max(self.pre_ready, now + t.tRAS)
        self.act_ready = max(self.act_ready, now + t.tRC)

    def do_read(self, now: int) -> None:
        t = self._t
        # PRE must wait read-to-precharge.
        self.pre_ready = max(self.pre_ready, now + t.tRTP)
        self.last_use = now

    def do_write(self, now: int) -> None:
        t = self._t
        # Write recovery: data lands at now+tWL, occupies burst, then tWR.
        self.pre_ready = max(self.pre_ready, now + t.tWL + t.burst_cycles + t.tWR)
        self.last_use = now

    def do_precharge(self, now: int) -> None:
        """Close the open row; caller has verified ``now >= pre_ready``."""
        t = self._t
        self.open_row = None
        self.opened_by = -1
        self.act_ready = max(self.act_ready, now + t.tRP)

    def block_until(self, cycle: int) -> None:
        """Make the bank unavailable until ``cycle`` (used by refresh)."""
        self.act_ready = max(self.act_ready, cycle)
        self.cas_ready = max(self.cas_ready, cycle)
        self.pre_ready = max(self.pre_ready, cycle)
