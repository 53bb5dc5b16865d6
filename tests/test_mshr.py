"""MSHR file semantics."""

import pytest

from repro.cache.mshr import MshrFile


class TestAllocate:
    def test_allocate_and_get(self):
        m = MshrFile(2)
        e = m.allocate(0x100)
        assert e is not None
        assert m.get(0x100) is e

    def test_full_returns_none(self):
        m = MshrFile(1)
        m.allocate(0x100)
        assert m.allocate(0x200) is None

    def test_duplicate_raises(self):
        m = MshrFile(2)
        m.allocate(0x100)
        with pytest.raises(ValueError):
            m.allocate(0x100)

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError):
            MshrFile(0)


class TestRelease:
    def test_release_frees_slot(self):
        m = MshrFile(1)
        m.allocate(0x100)
        m.release(0x100)
        assert m.get(0x100) is None
        assert m.allocate(0x200) is not None
        assert len(m) == 1


class TestEntry:
    def test_defaults(self):
        m = MshrFile(2)
        e = m.allocate(0x40)
        assert e.waiters == []
        assert e.txn is None
        assert not e.rfo
