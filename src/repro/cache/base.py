"""Set-associative cache array with true-LRU replacement, stored as columns."""

from __future__ import annotations

from array import array
from itertools import groupby

from repro.config import CacheConfig
from repro.cpu import native

#: The cache hierarchy's kernel, or None.  Its ``CacheBase`` holds a
#: cache's scalars as C fields; :mod:`repro.cache.hierarchy` runs its
#: per-access path.
_kernel = native.CACHE.load()

#: Coherence-state codes held in the ``state`` column: the ``ord()`` of
#: the state letter, so the det-state checksum is the one letters gave.
SHARED = ord("S")
MODIFIED = ord("M")


class SetAssociativeCache(object if _kernel is None else _kernel.CacheBase):
    """Tag array + LRU state.  Addresses are byte addresses; the cache
    computes its own line/set decomposition from its configuration.

    Lines live in per-slot columns, slot ``set * ways + way``: ``tag``
    (line address) and ``lru`` (recency stamp), both ``array("q")``, and
    ``state`` (coherence-state code) and ``dirty`` (0/1), both
    ``bytearray``.  A set's resident lines always fill its first
    ``fill[set]`` slots (``fill`` is an ``array("q")`` too);
    :meth:`invalidate` moves the set's last line into the hole.  So each
    resident line sits in exactly one slot of its own set, and
    :meth:`find` locates it by scanning that set's live slots.  The victim
    of a full set is its minimum-LRU slot: every touch and insert takes a
    fresh ``clock`` value, so stamps are unique and the victim does not
    depend on slot order.

    The determinism-chain words (resident count, dirty count, per-line
    checksum) are maintained incrementally on every mutation instead of
    being recomputed by walking every set at each chain sample.  The
    full walk survives as :meth:`det_state_scan`, which also checks the
    slot layout, and is asserted equal to the incremental words in the
    test suite.  ``MemoryHierarchy`` touches L1 hits inline, so it
    writes ``clock``, ``checksum`` and ``lru`` directly.  With the kernel
    loaded, its ``CacheBase`` holds ``clock``, ``_resident`` and
    ``_dirty_lines`` as C fields and ``checksum`` as an exact int, all
    read and written as attributes.
    """

    def __init__(self, config: CacheConfig):
        self.config = config
        self.line_bytes = config.line_bytes
        self.ways = config.ways
        self.num_sets = config.sets
        slots = self.num_sets * self.ways
        self.tag = array("q", (0,)) * slots
        self.lru = array("q", (0,)) * slots
        self.state = bytearray(slots)
        self.dirty = bytearray(slots)
        self.fill = array("q", (0,)) * self.num_sets
        # Incremental det-state words (see det_state).
        self.clock = 0
        self.checksum = 0
        self._resident = 0
        self._dirty_lines = 0

    # -- address helpers -----------------------------------------------------

    def line_addr(self, address: int) -> int:
        return address - (address % self.line_bytes)

    def find(self, line: int) -> int | None:
        """The slot holding the line-aligned address ``line``, or None: a
        scan of the live slots of its set."""
        index = (line // self.line_bytes) % self.num_sets
        base = index * self.ways
        live = self.tag[base:base + self.fill[index]]
        if line in live:
            return base + live.index(line)
        return None

    # -- operations ------------------------------------------------------------

    def lookup(self, address: int) -> int | None:
        """Return the slot of the line covering ``address`` and touch its
        LRU stamp; None on a miss."""
        slot = self.find(address - address % self.line_bytes)
        if slot is not None:
            clock = self.clock + 1
            self.clock = clock
            self.checksum += 131 * (clock - self.lru[slot])
            self.lru[slot] = clock
        return slot

    def peek(self, address: int) -> int | None:
        """Lookup without touching LRU."""
        return self.find(address - address % self.line_bytes)

    def insert(
        self, address: int, state: int = SHARED, dirty: bool = False
    ) -> tuple[int, int, int] | None:
        """Install the line covering ``address``.

        Returns the evicted ``(line_addr, state, dirty)`` if a victim had
        to make room, else None.  Inserting an already-resident line just
        refreshes it (and never cleans it).
        """
        line = address - address % self.line_bytes
        clock = self.clock + 1
        self.clock = clock
        lru = self.lru
        states = self.state
        dirties = self.dirty
        slot = self.find(line)
        if slot is not None:
            self.checksum += 7 * (state - states[slot]) + 131 * (clock - lru[slot])
            states[slot] = state
            lru[slot] = clock
            if dirty and not dirties[slot]:
                dirties[slot] = 1
                self._dirty_lines += 1
            return None
        ways = self.ways
        index = (line // self.line_bytes) % self.num_sets
        base = index * ways
        used = self.fill[index]
        victim = None
        if used < ways:
            slot = base + used
            self.fill[index] = used + 1
            self._resident += 1
        else:
            stamps = lru[base:base + ways]
            slot = base + stamps.index(min(stamps))
            old = self.tag[slot]
            victim = (old, states[slot], dirties[slot])
            self._dirty_lines -= dirties[slot]
            self.checksum -= old + 131 * lru[slot] + 7 * states[slot]
        self.tag[slot] = line
        lru[slot] = clock
        states[slot] = state
        dirties[slot] = dirty
        if dirty:
            self._dirty_lines += 1
        self.checksum += line + 131 * clock + 7 * state
        return victim

    def insert_range(self, first: int, stop: int) -> list[tuple[int, int, int]]:
        """Install clean Shared lines ``first``, ``first + line_bytes``, ...
        below ``stop`` (``first`` line-aligned), for cache pre-warming.

        Leaves exactly the state that one ``insert(addr)`` per line, in
        address order, would leave, and returns the evicted
        ``(line_addr, state, dirty)`` triples in eviction order.

        A range's lines fall in consecutive sets.  It goes in as *sweeps*,
        the stretches that do not wrap past the last set, so within a
        sweep every line has a set of its own; each sweep is split into
        runs of sets with equal ``fill``.  A run whose sets have room and
        hold none of its lines is written in bulk (:meth:`_fill_run`), any
        other run line by line (:meth:`_insert_lines`).  :meth:`insert`
        stays the runtime path and the reference this is tested against.
        """
        line_bytes = self.line_bytes
        num_sets = self.num_sets
        ways = self.ways
        fill = self.fill
        victims = []
        line = first
        index = (first // line_bytes) % num_sets
        while line < stop:
            end = min(num_sets, index + len(range(line, stop, line_bytes)))
            for used, run in groupby(fill[index:end]):
                count = len(list(run))  # repro-lint: disable=PERF001 one list per run of sets, not per line
                run_stop = line + count * line_bytes
                if used >= ways or not self._fill_run(line, count, index,
                                                      used):
                    self._insert_lines(
                        range(line, run_stop, line_bytes), index, victims
                    )
                line = run_stop
                index += count
            index = 0
        return victims

    def _fill_run(self, line: int, count: int, index: int, used: int) -> bool:
        """Install the ``count`` lines from ``line`` in sets ``index``,
        ``index + 1``, ..., which each hold ``used < ways`` lines, unless
        a set already holds its line of the run; returns whether it did.

        Within a sweep a set can hold only its own line of the run, so
        the check is whether a live slot holds a line in the run's address
        range: one stride-``ways`` slice per live way, tested by its
        extremes and, if they straddle the range, line by line.  Line k
        takes slot ``(index + k) * ways + used``, so every column takes one
        stride-``ways`` slice write and the det-state words a closed
        form."""
        if _kernel is not None:
            return _kernel.fill_run(self, line, count, index, used)
        ways = self.ways
        line_bytes = self.line_bytes
        stop = line + count * line_bytes
        window = range(line, stop)
        for way in range(used):
            start = index * ways + way
            column = self.tag[start:start + count * ways:ways]
            if (min(column) < stop and max(column) >= line
                    and any(map(window.__contains__, column))):
                return False
        clock = self.clock
        first_slot = index * ways + used
        span = slice(first_slot, first_slot + count * ways, ways)
        self.tag[span] = array("q", range(line, stop, line_bytes))
        self.lru[span] = array("q", range(clock + 1, clock + count + 1))
        self.state[span] = bytes((SHARED,)) * count
        self.dirty[span] = bytes(count)
        self.fill[index:index + count] = array("q", (used + 1,)) * count
        self.clock = clock + count
        self._resident += count
        # Lines, stamps and states summed in closed form: the lines step
        # by ``line_bytes``, the stamps by one.
        self.checksum += (
            count * line + line_bytes * count * (count - 1) // 2
            + 131 * (count * clock + count * (count + 1) // 2)
            + 7 * SHARED * count
        )
        return True

    def _insert_lines(
        self, lines, index: int, victims: list[tuple[int, int, int]]
    ) -> None:
        """One :meth:`insert` per line of ``lines``, which fall in sets
        ``index``, ``index + 1``, ..., with the columns and det-state
        words in locals; appends each victim to ``victims``."""
        ways = self.ways
        tag = self.tag
        lru = self.lru
        states = self.state
        dirties = self.dirty
        fill = self.fill
        clock = self.clock
        resident = self._resident
        dirty_lines = self._dirty_lines
        checksum = self.checksum
        for line in lines:
            clock += 1
            base = index * ways
            used = fill[index]
            live = tag[base:base + used]
            if line in live:
                slot = base + live.index(line)
                checksum += 7 * (SHARED - states[slot]) + 131 * (clock - lru[slot])
                states[slot] = SHARED
                lru[slot] = clock
            else:
                if used < ways:
                    slot = base + used
                    fill[index] = used + 1
                    resident += 1
                else:
                    stamps = lru[base:base + ways]
                    slot = base + stamps.index(min(stamps))
                    old = tag[slot]
                    victims.append((old, states[slot], dirties[slot]))
                    dirty_lines -= dirties[slot]
                    checksum -= old + 131 * lru[slot] + 7 * states[slot]
                tag[slot] = line
                lru[slot] = clock
                states[slot] = SHARED
                dirties[slot] = 0
                checksum += line + 131 * clock + 7 * SHARED
            index += 1
        self.clock = clock
        self._resident = resident
        self._dirty_lines = dirty_lines
        self.checksum = checksum

    def invalidate(self, address: int) -> tuple[int, int, int] | None:
        """Remove the line covering ``address``; returns its
        ``(line_addr, state, dirty)`` if it was resident."""
        line = address - address % self.line_bytes
        slot = self.find(line)
        if slot is None:
            return None
        lru = self.lru
        states = self.state
        dirties = self.dirty
        gone = (line, states[slot], dirties[slot])
        self._resident -= 1
        self._dirty_lines -= dirties[slot]
        self.checksum -= line + 131 * lru[slot] + 7 * states[slot]
        index = slot // self.ways
        last = index * self.ways + self.fill[index] - 1
        self.fill[index] -= 1
        if slot != last:
            self.tag[slot] = self.tag[last]
            lru[slot] = lru[last]
            states[slot] = states[last]
            dirties[slot] = dirties[last]
        return gone

    # -- mediated line mutation ----------------------------------------------

    def set_state(self, slot: int, state: int) -> None:
        """Change a resident line's coherence state (keeps the checksum
        current; never assign the ``state`` column directly)."""
        self.checksum += 7 * (state - self.state[slot])
        self.state[slot] = state

    def set_dirty(self, slot: int, dirty: bool = True) -> None:
        """Change a resident line's dirty bit (keeps the dirty count
        current; never assign the ``dirty`` column directly)."""
        if self.dirty[slot] != dirty:
            self._dirty_lines += 1 if dirty else -1
            self.dirty[slot] = dirty

    def resident_lines(self) -> int:
        return sum(self.fill)

    def det_state(self) -> list[int]:
        """Architectural state words for the determinism hash-chain.

        Tag-array contents and LRU clocks only move inside lookup/insert/
        invalidate (and the mediated line mutators) — all driven from
        stepped cycles — so these words are constant across quiescent
        fast-forward windows.  The per-line checksum is a sum, making it
        independent of slot order.
        """
        return [self.clock, self._resident, self._dirty_lines, self.checksum]

    def det_state_scan(self) -> list[int]:
        """The same four words recomputed by a full tag-array walk.

        Reference implementation for the incremental bookkeeping; the
        equivalence test drives a workload and asserts
        ``det_state() == det_state_scan()`` for every cache.  The walk
        also checks the slot layout that :meth:`find` relies on, raising
        ``AssertionError`` unless each set holds at most ``ways`` lines,
        in its first ``fill`` slots, all distinct and all lines of that
        set.
        """
        tag = self.tag
        ways = self.ways
        line_bytes = self.line_bytes
        resident = 0
        dirty = 0
        checksum = 0
        for index, used in enumerate(self.fill):
            if not 0 <= used <= ways:
                raise AssertionError(
                    f"set {index} holds {used} lines, not 0 to {ways}"
                )
            base = index * ways
            lines = tag[base:base + used]
            if len(set(lines)) != used:
                raise AssertionError(
                    f"set {index} holds a line twice: {lines.tolist()}"
                )
            for slot in range(base, base + used):
                line = tag[slot]
                if (line % line_bytes
                        or (line // line_bytes) % self.num_sets != index):
                    raise AssertionError(
                        f"slot {slot} of set {index} holds {line:#x}, "
                        f"which is not a line of that set"
                    )
                resident += 1
                dirty += self.dirty[slot]
                checksum += line + 131 * self.lru[slot] + 7 * self.state[slot]
        return [self.clock, resident, dirty, checksum]
