"""Determinism hash-chain: rolling digest of architectural state.

Every ``REPRO_DETCHAIN_EVERY`` CPU cycles (default 1024; ``0`` disables)
the system folds a snapshot of its *architectural* state — core dispatch
and retire pointers, committed counts, cache directory and MSHR
occupancy, memory queue contents, bank open rows, channel bus and
per-rank timing bookkeeping — into a rolling 64-bit FNV-1a digest,
together with the sample cycle itself.  The final digest and the list of
per-sample checkpoints are recorded on the :class:`~repro.sim.stats.SimResult`.

Two runs of the same spec must produce identical chains whether or not
cycle fast-forwarding is enabled, and across processes.  Because the
chain includes the sample cycle and is order-sensitive, any divergence —
a different command order, a request completing one cycle late, a core
committing a different instruction count — changes every subsequent
checkpoint, and :func:`first_divergence` pins the earliest diverging
sample, which bounds the bug to one ``every``-cycle window.

Only state that is provably constant during quiescent fast-forward
windows may be sampled (see ``System.run``): statistics counters are
settled lazily by ``flush_skip`` and are therefore excluded.
"""

from __future__ import annotations

import os

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1
#: ``_PRIME_POW[k]`` folds ``k`` zero bytes at once: FNV-1a's xor with a
#: zero byte is the identity, so each such byte only multiplies by the
#: prime.
_PRIME_POW = tuple(pow(_FNV_PRIME, k, 1 << 64) for k in range(9))

#: Checkpoint lists longer than this are decimated (every other entry
#: dropped) so long runs keep a bounded, evenly spaced history.
_CHECKPOINT_CAP = 4096


def _event_kernel():
    """The compiled event kernel (``sim/_kernel.c``), whose ``fold``
    backs :meth:`DetChain.sample`, or None.  Imported at the call:
    :mod:`repro.sim` imports the models, which import this package."""
    from repro.sim import events

    return events._kernel


def interval() -> int:
    """Sampling period in CPU cycles from the environment (0 = disabled)."""
    raw = os.environ.get("REPRO_DETCHAIN_EVERY", "")
    if not raw:
        return 1024
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(
            f"REPRO_DETCHAIN_EVERY must be an integer, got {raw!r}"
        ) from None
    return max(0, value)


class DetChain:
    """Order-sensitive rolling FNV-1a digest with periodic checkpoints."""

    __slots__ = ("digest", "every", "checkpoints", "samples", "_keep_stride")

    def __init__(self, every: int):
        if every < 1:
            raise ValueError(f"sampling interval must be >= 1, got {every}")
        self.digest = _FNV_OFFSET
        self.every = every
        #: ``(cycle, digest-after-folding-that-sample)`` pairs.
        self.checkpoints: list[tuple[int, int]] = []
        self.samples = 0
        self._keep_stride = 1

    def _fold(self, value: int) -> None:
        h = self.digest
        v = value & _MASK64
        # Mix 8 bytes a byte at a time (FNV-1a), LSB first.
        for _ in range(8):
            h = ((h ^ (v & 0xFF)) * _FNV_PRIME) & _MASK64
            v >>= 8
        self.digest = h

    def sample(self, cycle: int, state: tuple) -> None:
        """Fold one sample: the cycle number, then every state word.

        Chain sampling sits on every engine loop's hot path (a snapshot
        of about 1,300 words on the 8-core cells is folded every
        interval), so the fold runs in the event kernel's ``fold`` when
        that kernel is loaded.  The loop below is its reference and the
        fallback: inlined (rather than one :meth:`_fold` call per word),
        and since most words are small, each word's bytes above its last
        nonzero one are folded by one multiply (see ``_PRIME_POW``).
        """
        h = self.digest
        kernel = _event_kernel()
        if kernel is not None:
            h = kernel.fold(h, cycle, state)
        else:
            prime = _FNV_PRIME
            mask = _MASK64
            prime_pow = _PRIME_POW
            v = cycle & mask
            for _ in range(8):
                h = ((h ^ (v & 0xFF)) * prime) & mask
                v >>= 8
            for value in state:
                v = value & mask
                zeros = 8
                while v:
                    h = ((h ^ (v & 0xFF)) * prime) & mask
                    v >>= 8
                    zeros -= 1
                if zeros:
                    h = (h * prime_pow[zeros]) & mask
        self.digest = h
        self.samples += 1
        if self.samples % self._keep_stride == 0:
            self.checkpoints.append((cycle, self.digest))
            if len(self.checkpoints) > _CHECKPOINT_CAP:
                del self.checkpoints[::2]
                self._keep_stride *= 2

    def finalize(self, cycle: int, state: tuple) -> None:
        """Fold the end-of-run state as a final, always-kept checkpoint.

        The fold runs in the event kernel's ``fold`` when that kernel is
        loaded, and in the per-word Python loop below otherwise (the same
        arithmetic as :meth:`sample`)."""
        kernel = _event_kernel()
        if kernel is not None:
            self.digest = kernel.fold(self.digest, cycle, state)
        else:
            self._fold(cycle)
            for value in state:
                self._fold(value)
        self.checkpoints.append((cycle, self.digest))

    def fold_words(self, cycle: int, state: tuple) -> None:
        """Reference per-word fold (kept for cross-checks in tests)."""
        self._fold(cycle)
        for value in state:
            self._fold(value)
        self.samples += 1
        if self.samples % self._keep_stride == 0:
            self.checkpoints.append((cycle, self.digest))
            if len(self.checkpoints) > _CHECKPOINT_CAP:
                del self.checkpoints[::2]
                self._keep_stride *= 2


def snapshot(system) -> tuple:
    """Architectural state vector of a :class:`~repro.sim.system.System`.

    Everything sampled here is constant during windows the batched
    engine jumps, so batched and naive runs fold identical values at
    identical cycles.
    """
    values: list[int] = []
    for core in system.cores:
        values.extend(core.det_state())
    events = system.events
    values.append(len(events))
    nxt = events.next_cycle()
    values.append(-1 if nxt is None else nxt)
    values.extend(system.hierarchy.det_state())
    for channel in system.memory.channels:
        values.extend(channel.det_state())
    return tuple(values)


def first_divergence(chain_a, chain_b):
    """Earliest checkpoint at which two runs' chains disagree.

    ``chain_a`` / ``chain_b`` are checkpoint lists as recorded on
    ``SimResult.det_checkpoints``.  Returns ``None`` when the common
    prefix agrees (including when either list is empty), otherwise a
    dict with the diverging sample's cycle and both digests.
    """
    if not chain_a or not chain_b:
        return None  # a disabled chain carries no divergence evidence
    for (cycle_a, digest_a), (cycle_b, digest_b) in zip(chain_a, chain_b):
        if cycle_a != cycle_b:
            return {
                "cycle": min(cycle_a, cycle_b),
                "kind": "sample-cycle",
                "a": (cycle_a, digest_a),
                "b": (cycle_b, digest_b),
            }
        if digest_a != digest_b:
            return {
                "cycle": cycle_a,
                "kind": "digest",
                "a": (cycle_a, digest_a),
                "b": (cycle_b, digest_b),
            }
    if len(chain_a) != len(chain_b):
        longer = chain_a if len(chain_a) > len(chain_b) else chain_b
        cycle, digest = longer[min(len(chain_a), len(chain_b))]
        return {"cycle": cycle, "kind": "length", "a": None, "b": (cycle, digest)}
    return None
