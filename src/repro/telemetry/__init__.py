"""Telemetry spine: metric registry, interval sampler, event trace.

One :class:`Telemetry` bundle is built per simulated
:class:`~repro.sim.system.System` from the environment:

* the :class:`~repro.telemetry.registry.MetricRegistry` is always on —
  registration is a handful of dict inserts at construction and the
  instruments either alias state the simulator already keeps (gauges,
  histograms replacing old sum/count pairs) or count events it already
  counts, so the hot loop carries no new work when sampling and tracing
  are off;
* ``REPRO_SAMPLE_EVERY=N`` turns on the skip-aware
  :class:`~repro.telemetry.sampler.IntervalSampler` (0 = off, default);
* ``REPRO_TRACE=1`` turns on the bounded
  :class:`~repro.telemetry.trace.TraceRecorder`
  (capacity ``REPRO_TRACE_CAP``).

:func:`config_fingerprint` digests those knobs for the engine's cache
key so runs cached under one telemetry config are never replayed as
another's.
"""

from __future__ import annotations

from repro.telemetry import trace as trace_mod
from repro.telemetry.registry import (
    Counter,
    Gauge,
    LatencyHistogram,
    MetricRegistry,
)
from repro.telemetry.sampler import IntervalSampler, interval as sample_interval

__all__ = [
    "Counter",
    "Gauge",
    "LatencyHistogram",
    "MetricRegistry",
    "IntervalSampler",
    "TraceRecorder",
    "Telemetry",
    "config_fingerprint",
]

TraceRecorder = trace_mod.TraceRecorder


def config_fingerprint() -> dict:
    """Environment-derived telemetry config, folded into engine cache keys.

    Sampling and tracing change what a ``SimResult`` carries (not the
    simulated outcome), so two runs under different telemetry configs
    must not share a cache slot.
    """
    return {
        "sample_every": sample_interval(),
        "trace": trace_mod.enabled(),
        "trace_cap": trace_mod.capacity() if trace_mod.enabled() else 0,
    }


class Telemetry:
    """Per-system bundle of registry + optional sampler/trace."""

    __slots__ = ("registry", "sampler", "trace")

    def __init__(
        self,
        registry: MetricRegistry | None = None,
        sampler: IntervalSampler | None = None,
        trace: TraceRecorder | None = None,
    ):
        self.registry = registry if registry is not None else MetricRegistry()
        self.sampler = sampler
        self.trace = trace

    @classmethod
    def from_env(cls) -> "Telemetry":
        every = sample_interval()
        return cls(
            registry=MetricRegistry(),
            sampler=IntervalSampler(every) if every else None,
            trace=TraceRecorder() if trace_mod.enabled() else None,
        )

    def bind_sampler(self) -> None:
        """Freeze the sampled-instrument set (after all registrations)."""
        if self.sampler is not None:
            self.sampler.bind(self.registry.sampled_items())
