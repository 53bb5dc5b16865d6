"""Cache hierarchy: private L1Ds, shared L2, MSI coherence, stream prefetch."""

from repro.cache.base import SetAssociativeCache
from repro.cache.hierarchy import HierarchyStats, MemoryHierarchy
from repro.cache.mshr import MshrFile
from repro.cache.prefetcher import StreamPrefetcher

__all__ = [
    "HierarchyStats",
    "MemoryHierarchy",
    "MshrFile",
    "SetAssociativeCache",
    "StreamPrefetcher",
]
