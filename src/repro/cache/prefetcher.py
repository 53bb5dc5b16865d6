"""L2 stream prefetcher (Section 5.5; after Srinath et al., HPCA 2007).

Tracks up to ``streams`` independent access streams.  A stream is allocated
on a miss; two further misses in the same direction within the training
window confirm it, after which each demand access to the stream issues up to
``degree`` prefetches, staying within ``distance`` lines of the demand
pointer.  The paper's aggressive configuration: 64 streams, distance 64,
degree 4.
"""

from __future__ import annotations

from repro.config import PrefetcherConfig


class _Stream:
    __slots__ = ("last_line", "direction", "confidence", "next_prefetch", "lru")

    def __init__(self, line: int, lru: int):
        self.last_line = line
        self.direction = 0
        self.confidence = 0
        self.next_prefetch = line
        self.lru = lru


class StreamPrefetcher:
    """Per-L2 stream prefetch engine.

    :meth:`observe` is called with each demand access (line-granular) and
    returns the list of line addresses to prefetch now.
    """

    #: A new access within this many lines of a stream head trains it.
    TRAIN_WINDOW = 16
    #: Confirmations needed before a stream issues prefetches.
    CONFIRM = 2

    def __init__(self, config: PrefetcherConfig, line_bytes: int):
        self.config = config
        self.line_bytes = line_bytes
        self._streams: dict[int, _Stream] = {}
        self._clock = 0
        self.issued = 0

    def _region(self, line: int) -> int:
        # Streams are tracked per 4 KB region to keep matching O(1).
        return line // (4096 // self.line_bytes)

    def observe(self, address: int, is_miss: bool) -> list[int]:
        """Train on a demand access; return prefetch line addresses."""
        if not self.config.enabled:
            return []
        line = address // self.line_bytes
        region = self._region(line)
        self._clock += 1
        stream = self._streams.get(region)
        if stream is None:
            if not is_miss:
                return []
            if len(self._streams) >= self.config.streams:
                # Evict the least-recently-used stream.
                victim = min(self._streams, key=lambda r: self._streams[r].lru)
                del self._streams[victim]
            self._streams[region] = _Stream(line, self._clock)
            return []

        stream.lru = self._clock
        delta = line - stream.last_line
        if delta == 0:
            return []
        direction = 1 if delta > 0 else -1
        if stream.confidence < self.CONFIRM:
            if stream.direction == direction:
                stream.confidence += 1
            else:
                stream.direction = direction
                stream.confidence = 1
            stream.last_line = line
            stream.next_prefetch = line + direction
            if stream.confidence < self.CONFIRM:
                return []

        if direction != stream.direction:
            # Direction flipped: retrain.
            stream.direction = direction
            stream.confidence = 1
            stream.last_line = line
            stream.next_prefetch = line + direction
            return []

        stream.last_line = line
        limit = line + direction * self.config.distance
        prefetches = []
        for _ in range(self.config.degree):
            nxt = stream.next_prefetch
            if direction > 0 and (nxt <= line or nxt > limit):
                nxt = line + 1 if nxt <= line else None
            elif direction < 0 and (nxt >= line or nxt < limit):
                nxt = line - 1 if nxt >= line else None
            if nxt is None or nxt < 0:
                break  # a descending stream stops at line 0
            prefetches.append(nxt * self.line_bytes)
            stream.next_prefetch = nxt + direction
        self.issued += len(prefetches)
        return prefetches

    def active_streams(self) -> int:
        return len(self._streams)
