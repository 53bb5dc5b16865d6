"""Miss Status Holding Registers with same-line merging."""

from __future__ import annotations


class MshrEntry:
    """One outstanding miss: the waiters to wake and the in-flight txn."""

    __slots__ = ("line_addr", "waiters", "txn", "rfo")

    def __init__(self, line_addr: int):
        self.line_addr = line_addr
        self.waiters: list = []
        self.txn = None
        # True when a store (read-for-ownership) is merged into this miss.
        self.rfo = False


class MshrFile:
    """A fixed-capacity file of outstanding misses, keyed by line address."""

    def __init__(self, entries: int):
        if entries <= 0:
            raise ValueError(f"entries must be positive, got {entries}")
        self.capacity = entries
        self._entries: dict[int, MshrEntry] = {}

    def get(self, line_addr: int) -> MshrEntry | None:
        return self._entries.get(line_addr)

    @property
    def full(self) -> bool:
        return len(self._entries) >= self.capacity

    def allocate(self, line_addr: int) -> MshrEntry | None:
        """New entry for ``line_addr``; None if the file is full.

        Callers must check :meth:`get` first — allocating a duplicate line
        is a bug and raises.
        """
        if line_addr in self._entries:
            raise ValueError(f"MSHR already tracks line {line_addr:#x}")
        if self.full:
            return None
        entry = MshrEntry(line_addr)
        self._entries[line_addr] = entry
        return entry

    def release(self, line_addr: int) -> MshrEntry:
        """Remove and return the entry (miss completed)."""
        return self._entries.pop(line_addr)

    def abandon(self) -> None:
        """Drop the waiters and transaction callbacks of every entry.

        For a finished run only: no miss will complete any more, and
        these are the callbacks that reach back into the cores and the
        hierarchy."""
        for entry in self._entries.values():
            entry.waiters.clear()
            if entry.txn is not None:
                entry.txn.callback = None

    def det_state(self) -> list[int]:
        """Architectural state words for the determinism hash-chain.

        Entries only change inside cache/DRAM events, which always occur
        at stepped cycles, so everything here is constant during
        quiescent fast-forward windows.  Dict order is insertion order —
        itself a deterministic product of the simulated access stream —
        so the word sequence is reproducible across processes.
        """
        values = [len(self._entries)]
        for line_addr, entry in self._entries.items():
            values.append(line_addr)
            values.append(len(entry.waiters))
            values.append(1 if entry.rfo else 0)
            txn = entry.txn
            values.append(-1 if txn is None else txn.seq)
        return values

    def __len__(self) -> int:
        return len(self._entries)
