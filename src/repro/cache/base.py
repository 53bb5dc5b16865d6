"""Set-associative cache array with true-LRU replacement, stored as columns."""

from __future__ import annotations

from itertools import groupby, repeat

from repro.config import CacheConfig

#: Coherence-state codes held in the ``state`` column: the ``ord()`` of
#: the state letter, so the det-state checksum is the one letters gave.
SHARED = ord("S")
MODIFIED = ord("M")


class SetAssociativeCache:
    """Tag array + LRU state.  Addresses are byte addresses; the cache
    computes its own line/set decomposition from its configuration.

    Lines live in per-slot columns, slot ``set * ways + way``: ``tag``
    (line address), ``lru`` (recency stamp), ``state`` (coherence-state
    code) and ``dirty`` (0/1).  ``where`` maps each resident line to its
    slot.  A set's resident lines always fill its first ``fill[set]``
    slots; :meth:`invalidate` moves the set's last line into the hole.
    The victim of a full set is its minimum-LRU slot: every touch and
    insert takes a fresh ``clock`` value, so stamps are unique and the
    victim does not depend on slot order.

    The determinism-chain words (resident count, dirty count, per-line
    checksum) are maintained incrementally on every mutation instead of
    being recomputed by walking every set at each chain sample.  The
    full walk survives as :meth:`det_state_scan`, which also checks the
    slot layout, and is asserted equal to the incremental words in the
    test suite.  ``MemoryHierarchy`` touches L1 hits inline, so it
    writes ``clock``, ``checksum`` and ``lru`` directly.
    """

    def __init__(self, config: CacheConfig):
        self.config = config
        self.line_bytes = config.line_bytes
        self.ways = config.ways
        self.num_sets = config.sets
        if self.num_sets <= 0:
            raise ValueError(f"degenerate cache geometry: {config}")
        slots = self.num_sets * self.ways
        self.where: dict[int, int] = {}
        self.tag = [0] * slots
        self.lru = [0] * slots
        self.state = bytearray(slots)
        self.dirty = bytearray(slots)
        self.fill = [0] * self.num_sets
        # Incremental det-state words (see det_state).
        self.clock = 0
        self.checksum = 0
        self._resident = 0
        self._dirty_lines = 0

    # -- address helpers -----------------------------------------------------

    def line_addr(self, address: int) -> int:
        return address - (address % self.line_bytes)

    # -- operations ------------------------------------------------------------

    def lookup(self, address: int) -> int | None:
        """Return the slot of the line covering ``address`` and touch its
        LRU stamp; None on a miss."""
        slot = self.where.get(address - address % self.line_bytes)
        if slot is not None:
            clock = self.clock + 1
            self.clock = clock
            self.checksum += 131 * (clock - self.lru[slot])
            self.lru[slot] = clock
        return slot

    def peek(self, address: int) -> int | None:
        """Lookup without touching LRU."""
        return self.where.get(address - address % self.line_bytes)

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
        slot = self.where.get(line)
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
            slot = lru.index(min(lru[base:base + ways]), base, base + ways)
            old = self.tag[slot]
            del self.where[old]
            victim = (old, states[slot], dirties[slot])
            self._dirty_lines -= dirties[slot]
            self.checksum -= old + 131 * lru[slot] + 7 * states[slot]
        self.where[line] = slot
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
        where = self.where
        victims = []
        line = first
        index = (first // line_bytes) % num_sets
        while line < stop:
            end = min(num_sets, index + len(range(line, stop, line_bytes)))
            for used, run in groupby(fill[index:end]):
                count = len(list(run))  # repro-lint: disable=PERF001 one list per run of sets, not per line
                run_stop = line + count * line_bytes
                # One int per line, shared by the tag column and ``where``
                # as the per-line loop shares it.
                lines = list(range(line, run_stop, line_bytes))  # repro-lint: disable=PERF001 one list per run of sets, not per line
                if used < ways and where.keys().isdisjoint(lines):
                    self._fill_run(lines, index, used)
                else:
                    self._insert_lines(lines, index, victims)
                line = run_stop
                index += count
            index = 0
        return victims

    def _fill_run(self, lines: list[int], index: int, used: int) -> None:
        """Install ``lines`` in sets ``index``, ``index + 1``, ..., which
        each hold ``used < ways`` lines and none of ``lines``: line k takes
        slot ``(index + k) * ways + used``, so every column takes one
        stride-``ways`` slice write and the det-state words a closed form."""
        count = len(lines)
        ways = self.ways
        clock = self.clock
        first_slot = index * ways + used
        slots = range(first_slot, first_slot + count * ways, ways)
        span = slice(first_slot, first_slot + count * ways, ways)
        # ``where`` first, so its table grows before the stamps' ints
        # exist: a lower peak of memory while a machine is built.
        self.where.update(zip(lines, slots))
        self.tag[span] = lines
        self.lru[span] = range(clock + 1, clock + count + 1)
        self.state[span] = bytes((SHARED,)) * count
        self.dirty[span] = bytes(count)
        self.fill[index:index + count] = repeat(used + 1, count)
        self.clock = clock + count
        self._resident += count
        # Lines, stamps and states summed in closed form: the lines step
        # by ``line_bytes``, the stamps by one.
        self.checksum += (
            count * lines[0] + self.line_bytes * count * (count - 1) // 2
            + 131 * (count * clock + count * (count + 1) // 2)
            + 7 * SHARED * count
        )

    def _insert_lines(
        self, lines: list[int], index: int, victims: list[tuple[int, int, int]]
    ) -> None:
        """One :meth:`insert` per line of ``lines``, which fall in sets
        ``index``, ``index + 1``, ..., with the columns and det-state
        words in locals; appends each victim to ``victims``."""
        ways = self.ways
        where = self.where
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
            slot = where.get(line)
            if slot is not None:
                checksum += 7 * (SHARED - states[slot]) + 131 * (clock - lru[slot])
                states[slot] = SHARED
                lru[slot] = clock
            else:
                base = index * ways
                used = fill[index]
                if used < ways:
                    slot = base + used
                    fill[index] = used + 1
                    resident += 1
                else:
                    slot = lru.index(min(lru[base:base + ways]), base, base + ways)
                    old = tag[slot]
                    del where[old]
                    victims.append((old, states[slot], dirties[slot]))
                    dirty_lines -= dirties[slot]
                    checksum -= old + 131 * lru[slot] + 7 * states[slot]
                where[line] = slot
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
        slot = self.where.pop(line, None)
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
            moved = self.tag[last]
            self.tag[slot] = moved
            lru[slot] = lru[last]
            states[slot] = states[last]
            dirties[slot] = dirties[last]
            self.where[moved] = slot
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
        also checks the slot layout, raising ``AssertionError`` unless
        each set's first ``fill`` slots hold lines of that set whose
        ``where`` entry points back at them, and ``where`` holds nothing
        else.
        """
        where = self.where
        tag = self.tag
        ways = self.ways
        resident = 0
        dirty = 0
        checksum = 0
        for index, used in enumerate(self.fill):
            if used > ways:
                raise AssertionError(f"set {index} holds {used} > {ways} lines")
            for slot in range(index * ways, index * ways + used):
                line = tag[slot]
                if (where.get(line) != slot
                        or (line // self.line_bytes) % self.num_sets != index):
                    raise AssertionError(
                        f"slot {slot} of set {index} holds line {line:#x}, "
                        f"which where maps to {where.get(line)}"
                    )
                resident += 1
                dirty += self.dirty[slot]
                checksum += line + 131 * self.lru[slot] + 7 * self.state[slot]
        if resident != len(where):
            raise AssertionError(
                f"where holds {len(where)} lines, the sets {resident}"
            )
        return [self.clock, resident, dirty, checksum]
