"""Skip-aware interval sampling of registered instruments.

Every ``REPRO_SAMPLE_EVERY`` virtual CPU cycles (0 = disabled, the
default) the sampler reads each instrument registered with
``sampled=True`` and appends the value to that instrument's time-series.
Sample cycles are defined on the *virtual* cycle axis, exactly like the
determinism hash-chain: during a quiescent fast-forward window every
sampled value is constant (that is the registration contract, see
:mod:`repro.telemetry.registry`), so folding one read per due sample
point inside the window yields the identical sample stream the naive
cycle-by-cycle loop would have produced.  ``tests/test_telemetry_determinism.py``
pins that identity across skip modes and worker processes.

Long runs stay bounded: past ``_SAMPLE_CAP`` samples the series are
decimated (every other sample dropped, stride doubled) — a pure function
of the sample count, hence mode- and process-invariant.
"""

from __future__ import annotations

import os

#: Sample lists longer than this are decimated to stay bounded.
_SAMPLE_CAP = 4096


def interval() -> int:
    """Sampling period in CPU cycles from the environment (0 = disabled)."""
    raw = os.environ.get("REPRO_SAMPLE_EVERY", "")
    if not raw:
        return 0
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(
            f"REPRO_SAMPLE_EVERY must be an integer, got {raw!r}"
        ) from None
    return max(0, value)


class IntervalSampler:
    """Periodic reader of the registry's ``sampled`` instruments."""

    __slots__ = ("every", "next_sample", "cycles", "series", "_sources")

    def __init__(self, every: int):
        if every < 1:
            raise ValueError(f"sampling interval must be >= 1, got {every}")
        self.every = every
        self.next_sample = every
        self.cycles: list[int] = []
        self.series: dict[str, list] = {}
        self._sources: list[tuple[list, object]] = []

    def bind(self, sampled_items) -> None:
        """Attach the registry's ``sampled`` instruments (once, at build)."""
        for name, instrument in sampled_items:
            store: list = []
            self.series[name] = store
            self._sources.append((store, instrument))

    def sample_upto(self, limit: int) -> None:
        """Fold every due sample point in ``[next_sample, limit)``.

        Called with ``limit = now + 1`` by the naive loop and with the
        fast-forward target by the skipping loop; in the latter case the
        window is quiescent, so reading the (constant) instruments once
        per due point reproduces the naive stream exactly.
        """
        while self.next_sample < limit:
            self.cycles.append(self.next_sample)
            for store, instrument in self._sources:
                store.append(instrument.read())
            self.next_sample += self.every
            if len(self.cycles) >= _SAMPLE_CAP:
                self._decimate()

    def _decimate(self) -> None:
        """Halve resolution deterministically (same phase, doubled stride)."""
        self.cycles = self.cycles[::2]
        for name, store in self.series.items():
            kept = store[::2]
            store.clear()
            store.extend(kept)
            self.series[name] = store
        # Re-point _sources at the (mutated-in-place) stores: they are the
        # same list objects, so nothing to do beyond the stride update.
        self.every *= 2
