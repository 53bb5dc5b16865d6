"""Set-associative cache array with LRU replacement."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import CacheConfig
from repro.cache.base import MODIFIED, SHARED, SetAssociativeCache


def small_cache(ways=2, sets=4, line=64):
    return SetAssociativeCache(
        CacheConfig(size_bytes=ways * sets * line, line_bytes=line, ways=ways,
                    round_trip_latency=1, mshr_entries=4)
    )


class TestBasics:
    def test_miss_then_hit(self):
        c = small_cache()
        assert c.lookup(100) is None
        c.insert(100)
        assert c.lookup(100) is not None

    def test_line_granularity(self):
        c = small_cache()
        c.insert(128)
        assert c.lookup(128 + 63) is not None
        assert c.lookup(128 + 64) is None

    def test_line_addr(self):
        c = small_cache()
        assert c.line_addr(130) == 128
        assert c.line_addr(64) == 64

    def test_peek_does_not_touch(self):
        """peek leaves the LRU stamps and det_state unchanged."""
        c = small_cache()
        c.insert(0)
        stamps = c.lru[:]
        words = c.det_state()
        assert c.peek(0) is not None
        assert c.lru == stamps
        assert c.det_state() == words


class TestLru:
    def test_evicts_least_recently_used(self):
        c = small_cache(ways=2, sets=1)
        c.insert(0)
        c.insert(64)
        c.lookup(0)          # 0 is now MRU
        victim = c.insert(128)
        assert victim is not None
        assert victim[0] == 64

    def test_insert_refreshes_existing(self):
        c = small_cache(ways=2, sets=1)
        c.insert(0)
        c.insert(64)
        c.insert(0)          # refresh, no eviction
        victim = c.insert(128)
        assert victim[0] == 64

    def test_refresh_preserves_dirty(self):
        c = small_cache()
        c.insert(0, dirty=True)
        c.insert(0, dirty=False)
        assert c.dirty[c.peek(0)]


class TestInvalidate:
    def test_removes_line(self):
        c = small_cache()
        c.insert(0)
        assert c.invalidate(0) == (0, SHARED, 0)
        assert c.peek(0) is None

    def test_absent_returns_none(self):
        c = small_cache()
        assert c.invalidate(0) is None


class TestState:
    def test_state_stored(self):
        c = small_cache()
        c.insert(0, state=MODIFIED, dirty=True)
        slot = c.peek(0)
        assert c.state[slot] == MODIFIED
        assert c.dirty[slot]

    def test_resident_lines(self):
        c = small_cache()
        c.insert(0)
        c.insert(64)
        assert c.resident_lines() == 2


class TestDetStateIncremental:
    """The incrementally maintained det_state words must always equal
    the full tag-array walk (``det_state_scan``) they replaced."""

    def test_fresh_cache(self):
        c = small_cache()
        assert c.det_state() == c.det_state_scan()

    def test_mediated_mutators_keep_words_consistent(self):
        c = small_cache()
        c.insert(0, state=SHARED)
        c.insert(64, state=SHARED, dirty=True)
        slot = c.peek(0)
        c.set_state(slot, MODIFIED)
        assert c.det_state() == c.det_state_scan()
        c.set_dirty(slot)
        assert c.det_state() == c.det_state_scan()
        c.set_dirty(c.peek(64), False)
        assert c.det_state() == c.det_state_scan()

    @settings(max_examples=50)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(
                    ["lookup", "insert", "insert_dirty", "insert_m",
                     "invalidate", "state", "dirty", "clean"]
                ),
                st.integers(0, 1023),
            ),
            min_size=1,
            max_size=120,
        )
    )
    def test_random_ops_match_scan(self, ops):
        c = small_cache(ways=2, sets=2)
        for op, addr in ops:
            if op == "lookup":
                c.lookup(addr)
            elif op == "insert":
                c.insert(addr)
            elif op == "insert_dirty":
                c.insert(addr, dirty=True)
            elif op == "insert_m":
                c.insert(addr, state=MODIFIED, dirty=True)
            elif op == "invalidate":
                c.invalidate(addr)
            else:
                slot = c.peek(addr)
                if slot is None:
                    continue
                if op == "state":
                    c.set_state(slot, ord("E"))
                elif op == "dirty":
                    c.set_dirty(slot)
                else:
                    c.set_dirty(slot, False)
            assert c.det_state() == c.det_state_scan()

    def test_scan_checks_the_slot_layout(self):
        """A fill count above the set's ways is caught even though the
        incremental words cannot see it."""
        c = small_cache(ways=2, sets=1)
        c.insert(0)
        c.insert(64)
        c.fill[0] = 3
        with pytest.raises(AssertionError, match="holds 3 lines"):
            c.det_state_scan()

    def test_scan_catches_a_line_held_twice(self):
        """A set whose live slots hold one line twice fails the scan:
        :meth:`find` would see only the first copy."""
        c = small_cache(ways=2, sets=2)
        c.insert(0)
        c.insert(128)
        c.tag[1] = 0   # set 0's second slot now repeats its first
        with pytest.raises(AssertionError, match="holds a line twice"):
            c.det_state_scan()

    def test_scan_catches_a_line_in_another_set(self):
        """A line in a slot of a set it does not map to fails the scan:
        :meth:`find` looks for it in its own set only."""
        c = small_cache(ways=2, sets=2)
        c.insert(0)
        c.tag[0] = 64   # line 64 belongs to set 1
        assert c.peek(64) is None
        with pytest.raises(AssertionError, match="not a line of that set"):
            c.det_state_scan()


class ReferenceCache:
    """The per-set true-LRU model the columns must match: one list of
    ``[line, state, dirty, lru]`` per set, victims by minimum stamp."""

    def __init__(self, ways, sets, line):
        self.ways, self.line = ways, line
        self.sets = [[] for _ in range(sets)]
        self.clock = 0

    def find(self, address):
        line = address - address % self.line
        entries = self.sets[(line // self.line) % len(self.sets)]
        for entry in entries:
            if entry[0] == line:
                return line, entries, entry
        return line, entries, None

    def lookup(self, address):
        _line, _entries, entry = self.find(address)
        if entry is not None:
            self.clock += 1
            entry[3] = self.clock
        return entry is not None

    def insert(self, address, state=SHARED, dirty=False):
        line, entries, entry = self.find(address)
        self.clock += 1
        if entry is not None:
            entry[1] = state
            entry[2] = entry[2] or int(dirty)
            entry[3] = self.clock
            return None
        victim = None
        if len(entries) == self.ways:
            old = min(entries, key=lambda e: e[3])
            entries.remove(old)
            victim = (old[0], old[1], old[2])
        entries.append([line, state, int(dirty), self.clock])
        return victim

    def invalidate(self, address):
        _line, entries, entry = self.find(address)
        if entry is None:
            return None
        entries.remove(entry)
        return (entry[0], entry[1], entry[2])

    def contents(self):
        return [{e[0]: (e[1], e[2], e[3]) for e in entries}
                for entries in self.sets]

    def words(self):
        entries = [e for s in self.sets for e in s]
        return [
            self.clock,
            len(entries),
            sum(e[2] for e in entries),
            sum(e[0] + 131 * e[3] + 7 * e[1] for e in entries),
        ]


def _contents(cache):
    """Each set's resident lines, read from its first ``fill`` slots."""
    view = []
    for index, used in enumerate(cache.fill):
        base = index * cache.ways
        view.append({
            cache.tag[slot]: (cache.state[slot], cache.dirty[slot], cache.lru[slot])
            for slot in range(base, base + used)
        })
    return view


_ops = st.lists(
    st.tuples(
        st.sampled_from(
            ["lookup", "insert", "insert_dirty", "insert_m", "invalidate",
             "state", "dirty", "clean", "insert_range"]
        ),
        st.integers(0, 1023),
        st.integers(1, 640),
    ),
    min_size=1,
    max_size=120,
)


@settings(max_examples=200, deadline=None)
@given(ways=st.integers(1, 4), sets=st.integers(1, 4), ops=_ops)
def test_capacity_and_contents_match_reference(ways, sets, ops):
    """Property: every op sequence leaves the columns equal to the per-set
    LRU reference (hit/miss answers, victims in order, resident lines
    with their state, dirty bit and LRU stamp), and the incremental
    det-state words equal both the reference's and the checked scan's."""
    line = 64
    c = small_cache(ways=ways, sets=sets, line=line)
    ref = ReferenceCache(ways, sets, line)
    for op, addr, nbytes in ops:
        if op == "lookup":
            assert (c.lookup(addr) is not None) == ref.lookup(addr)
        elif op == "insert":
            assert c.insert(addr) == ref.insert(addr)
        elif op == "insert_dirty":
            assert c.insert(addr, dirty=True) == ref.insert(addr, dirty=True)
        elif op == "insert_m":
            assert (c.insert(addr, state=MODIFIED, dirty=True)
                    == ref.insert(addr, state=MODIFIED, dirty=True))
        elif op == "invalidate":
            assert c.invalidate(addr) == ref.invalidate(addr)
        elif op == "insert_range":
            first = addr - addr % line
            want = [v for a in range(first, addr + nbytes, line)
                    if (v := ref.insert(a)) is not None]
            assert c.insert_range(first, addr + nbytes) == want
        else:
            slot = c.peek(addr)
            _line, _entries, entry = ref.find(addr)
            assert (slot is None) == (entry is None)
            if slot is None:
                continue
            if op == "state":
                c.set_state(slot, ord("E"))
                entry[1] = ord("E")
            else:
                c.set_dirty(slot, op == "dirty")
                entry[2] = int(op == "dirty")
        assert _contents(c) == ref.contents()
        assert c.resident_lines() <= ways * sets
        assert c.det_state() == c.det_state_scan() == ref.words()
