"""Set-associative cache array with true-LRU replacement."""

from __future__ import annotations

from repro.config import CacheConfig


class CacheLine:
    """One resident line: coherence state, dirtiness, recency.

    ``state`` and ``dirty`` feed the owning cache's incrementally
    maintained det-state words; mutate them through
    :meth:`SetAssociativeCache.set_line_state` /
    :meth:`SetAssociativeCache.set_line_dirty`, never directly.
    """

    __slots__ = ("state", "dirty", "lru")

    def __init__(self, state: str = "S", dirty: bool = False, lru: int = 0):
        self.state = state
        self.dirty = dirty
        self.lru = lru


class SetAssociativeCache:
    """Tag array + LRU state.  Addresses are byte addresses; the cache
    computes its own line/set decomposition from its configuration.

    The determinism-chain words (resident count, dirty count, per-line
    checksum) are maintained incrementally on every mutation instead of
    being recomputed by walking every set at each chain sample — the
    walk was the single hottest function in whole-run profiles.  The
    slow full scan survives as :meth:`det_state_scan` and is asserted
    equal to the incremental words in the test suite.
    """

    def __init__(self, config: CacheConfig):
        self.config = config
        self.line_bytes = config.line_bytes
        self.ways = config.ways
        self.num_sets = config.sets
        if self.num_sets <= 0:
            raise ValueError(f"degenerate cache geometry: {config}")
        self._sets: list[dict[int, CacheLine]] = [dict() for _ in range(self.num_sets)]
        self._clock = 0
        self.hits = 0
        self.misses = 0
        # Incremental det-state words (see det_state).
        self._resident = 0
        self._dirty = 0
        self._checksum = 0

    # -- address helpers -----------------------------------------------------

    def line_addr(self, address: int) -> int:
        return address - (address % self.line_bytes)

    def _set_index(self, line_addr: int) -> int:
        return (line_addr // self.line_bytes) % self.num_sets

    # -- operations ------------------------------------------------------------

    def lookup(self, address: int, touch: bool = True) -> CacheLine | None:
        """Return the resident line covering ``address``, if any."""
        line_addr = self.line_addr(address)
        line = self._sets[self._set_index(line_addr)].get(line_addr)
        if line is None:
            self.misses += 1
            return None
        if touch:
            self._clock += 1
            self._checksum += 131 * (self._clock - line.lru)
            line.lru = self._clock
        self.hits += 1
        return line

    def peek(self, address: int) -> CacheLine | None:
        """Lookup without touching LRU or hit/miss counters."""
        line_addr = self.line_addr(address)
        return self._sets[self._set_index(line_addr)].get(line_addr)

    def insert(
        self, address: int, state: str = "S", dirty: bool = False
    ) -> tuple[int, CacheLine] | None:
        """Install the line covering ``address``.

        Returns the evicted ``(line_addr, CacheLine)`` pair if a victim had
        to make room, else None.  Inserting an already-resident line just
        refreshes it.
        """
        line_addr = self.line_addr(address)
        cache_set = self._sets[self._set_index(line_addr)]
        self._clock += 1
        existing = cache_set.get(line_addr)
        if existing is not None:
            self._checksum += 7 * (ord(state[0]) - ord(existing.state[0]))
            existing.state = state
            if dirty and not existing.dirty:
                self._dirty += 1
                existing.dirty = True
            self._checksum += 131 * (self._clock - existing.lru)
            existing.lru = self._clock
            return None
        victim = None
        if len(cache_set) >= self.ways:
            victim_addr = min(cache_set, key=lambda a: cache_set[a].lru)
            victim_line = cache_set.pop(victim_addr)
            self._drop_words(victim_addr, victim_line)
            victim = (victim_addr, victim_line)
        cache_set[line_addr] = CacheLine(state=state, dirty=dirty, lru=self._clock)
        self._resident += 1
        if dirty:
            self._dirty += 1
        self._checksum += line_addr + 131 * self._clock + 7 * ord(state[0])
        return victim

    def insert_range(self, first: int, stop: int) -> list[tuple[int, CacheLine]]:
        """Install clean Shared lines ``first``, ``first + line_bytes``, ...
        below ``stop`` (``first`` line-aligned), for cache pre-warming.

        Leaves exactly the state that one ``insert(addr, "S")`` per line,
        in address order, would leave, and returns the evicted
        ``(line_addr, CacheLine)`` pairs in eviction order.  The set index
        steps incrementally and the clock, resident count and checksum
        live in locals.  :meth:`insert` stays the runtime path and the
        reference this is tested against.
        """
        line_bytes = self.line_bytes
        num_sets = self.num_sets
        ways = self.ways
        sets = self._sets
        clock = self._clock
        resident = self._resident
        dirty = self._dirty
        checksum = self._checksum
        state = "S"
        code = ord(state)
        victims = []
        index = (first // line_bytes) % num_sets
        for line_addr in range(first, stop, line_bytes):
            cache_set = sets[index]
            index += 1
            if index == num_sets:
                index = 0
            clock += 1
            existing = cache_set.get(line_addr)
            if existing is not None:
                checksum += (7 * (code - ord(existing.state[0]))
                             + 131 * (clock - existing.lru))
                existing.state = state
                existing.lru = clock
                continue
            if len(cache_set) >= ways:
                victim_addr = min(cache_set, key=lambda a: cache_set[a].lru)
                victim = cache_set.pop(victim_addr)
                resident -= 1
                if victim.dirty:
                    dirty -= 1
                checksum -= victim_addr + 131 * victim.lru + 7 * ord(victim.state[0])
                victims.append((victim_addr, victim))
            cache_set[line_addr] = CacheLine(state, False, clock)
            resident += 1
            checksum += line_addr + 131 * clock + 7 * code
        self._clock = clock
        self._resident = resident
        self._dirty = dirty
        self._checksum = checksum
        return victims

    def invalidate(self, address: int) -> CacheLine | None:
        """Remove the line covering ``address``; returns it if present."""
        line_addr = self.line_addr(address)
        line = self._sets[self._set_index(line_addr)].pop(line_addr, None)
        if line is not None:
            self._drop_words(line_addr, line)
        return line

    def _drop_words(self, line_addr: int, line: CacheLine) -> None:
        """Remove a departing line's contribution to the det-state words."""
        self._resident -= 1
        if line.dirty:
            self._dirty -= 1
        self._checksum -= line_addr + 131 * line.lru + 7 * ord(line.state[0])

    # -- mediated line mutation ----------------------------------------------

    def set_line_state(self, line: CacheLine, state: str) -> None:
        """Change a resident line's coherence state (keeps the checksum
        current; never assign ``line.state`` directly)."""
        self._checksum += 7 * (ord(state[0]) - ord(line.state[0]))
        line.state = state

    def set_line_dirty(self, line: CacheLine, dirty: bool = True) -> None:
        """Change a resident line's dirty bit (keeps the dirty count
        current; never assign ``line.dirty`` directly)."""
        if line.dirty != dirty:
            self._dirty += 1 if dirty else -1
            line.dirty = dirty

    def resident_lines(self) -> int:
        return sum(len(s) for s in self._sets)

    def det_state(self) -> list[int]:
        """Architectural state words for the determinism hash-chain.

        Tag-array contents and LRU clocks only move inside lookup/insert/
        invalidate (and the mediated line mutators) — all driven from
        stepped cycles — so these words are constant across quiescent
        fast-forward windows.  The per-line checksum is a sum, making it
        independent of set/dict iteration order.  Hit/miss counters are
        statistics and stay excluded.
        """
        return [self._clock, self._resident, self._dirty, self._checksum]

    def det_state_scan(self) -> list[int]:
        """The same four words recomputed by a full tag-array walk.

        Reference implementation for the incremental bookkeeping; the
        equivalence test drives a workload and asserts
        ``det_state() == det_state_scan()`` for every cache.
        """
        resident = 0
        dirty = 0
        checksum = 0
        for cache_set in self._sets:
            resident += len(cache_set)
            for line_addr, line in cache_set.items():
                if line.dirty:
                    dirty += 1
                checksum += line_addr + 131 * line.lru + 7 * ord(line.state[0])
        return [self._clock, resident, dirty, checksum]
