"""Runtime cross-checks of the analyzer's purity certificates and of the
scheduler contract.

The static effect analysis (:mod:`repro.analysis.semantic.effects`)
certifies methods like ``next_wake``/``can_accept``/``skip_plan`` as
window-invariant: the batching engine may call them once per ready
window, or not at all, without changing simulated state.  Static
analysis has documented blind spots (dynamic dispatch, ``setattr``,
unresolved callees), so this module closes the loop at runtime: with
``REPRO_VERIFY_EFFECTS=1`` every certified call is bracketed by
``det_state()`` snapshots, and a mutation observed across a certified
call raises :class:`EffectViolation` at the exact call instead of
surfacing later as a determinism-chain divergence.

The same switch brackets each channel's scheduler hooks (``select``,
``on_enqueue``, ``on_command``) with a snapshot of the controller's own
state: both queues and every field of their transactions, the banks, the
channel timing and the refresh state.  A scheduler ranks the candidates
it is handed and the controller executes the choice, so a hook that
changes any of it raises :class:`EffectViolation`.  The one field a
scheduler may write is ``Transaction.marked`` (PAR-BS batch marks).

Snapshotting costs a full state walk per call, so the check is for
smoke runs and CI, not production sweeps.  ``REPRO_VERIFY_EFFECTS_EVERY=N``
samples every Nth call to cut the overhead.
"""

from __future__ import annotations

import os
from collections import deque

from repro.dram.bank import Bank
from repro.dram.channel import ChannelTiming
from repro.dram.transaction import Transaction

ENV_ENABLE = "REPRO_VERIFY_EFFECTS"
ENV_EVERY = "REPRO_VERIFY_EFFECTS_EVERY"

#: Certified window-invariant hooks checked per component kind.
CHANNEL_HOOKS = ("next_wake", "next_wake_window", "pending", "can_accept")
CORE_HOOKS = ("skip_plan",)
HIERARCHY_HOOKS = ("can_accept_store",)
#: Scheduler hooks that must leave their controller's state alone.
SCHEDULER_HOOKS = ("select", "on_enqueue", "on_command")

#: Transaction fields a scheduler may not write: all but PAR-BS's marks.
_TXN_FIELDS = tuple(f for f in Transaction.__slots__ if f != "marked")


class EffectViolation(AssertionError):
    """At run time, a certified-pure method changed ``det_state()``, or a
    scheduler hook changed its controller's state."""


def enabled() -> bool:
    return os.environ.get(ENV_ENABLE, "") not in ("", "0")


def _env_every() -> int:
    raw = os.environ.get(ENV_EVERY, "")
    try:
        return max(1, int(raw)) if raw else 1
    except ValueError:
        return 1


def _frozen(value):
    """``value`` with its lists and deques turned into tuples."""
    if isinstance(value, (list, tuple, deque)):
        return tuple(_frozen(item) for item in value)
    return value


def _controller_state(channel) -> dict[str, tuple]:
    """The part of ``channel``'s state its scheduler may read but not
    write, by part: queues, banks, timing, refresh."""
    return {
        "queues": tuple(
            tuple(tuple(getattr(txn, f) for f in _TXN_FIELDS) for txn in queue)
            for queue in (channel.read_queue, channel.write_queue)
        ) + (channel._seq, channel._draining),
        "banks": tuple(
            tuple(getattr(bank, f) for f in Bank.__slots__)
            for rank_banks in channel.banks for bank in rank_banks
        ),
        "timing": tuple(
            _frozen(getattr(channel.timing, f)) for f in ChannelTiming.__slots__
        ),
        "refresh": (tuple(channel._next_refresh), tuple(channel._refresh_due)),
    }


def _wrap(obj, method_name: str, state_fn, complaint, every: int) -> None:
    """Bracket ``obj.method_name`` with ``state_fn()`` snapshots; a call
    that changes the snapshot raises ``complaint(before, after)``."""
    inner = getattr(obj, method_name)
    calls = [0]

    def checked(*args, **kwargs):
        calls[0] += 1
        if calls[0] % every:
            return inner(*args, **kwargs)
        before = state_fn()
        result = inner(*args, **kwargs)
        after = state_fn()
        if before != after:
            raise EffectViolation(complaint(before, after))
        return result

    checked.__wrapped_for_effects__ = method_name
    setattr(obj, method_name, checked)


def _wrap_certified(obj, method_name: str, label: str, every: int) -> None:
    def complaint(before, after):
        return (
            f"{label}.{method_name}() holds a window-invariance "
            f"certificate but changed det_state() during the call; "
            f"the static certificate (see batchability.json) is wrong "
            f"or the mutation is undeclared"
        )

    _wrap(obj, method_name, lambda: tuple(obj.det_state()), complaint, every)


def _wrap_scheduler(channel, hook: str, every: int) -> None:
    scheduler = channel.scheduler

    def complaint(before, after):
        parts = [part for part in before if before[part] != after[part]]
        return (
            f"scheduler {scheduler.name!r}: {hook}() changed the "
            f"{'/'.join(parts)} of channel{channel.channel_id}; a scheduler "
            f"only ranks candidates (it may set Transaction.marked), and "
            f"the controller executes the choice"
        )

    _wrap(scheduler, hook, lambda: _controller_state(channel), complaint, every)


def instrument_system(system, every: int | None = None) -> int:
    """Bracket every certified-pure hook on ``system`` with det_state
    snapshots, and every scheduler hook with its controller's state.
    Returns the number of methods wrapped."""
    every = _env_every() if every is None else max(1, int(every))
    wrapped = 0
    for channel in system.memory.channels:
        label = f"channel{channel.channel_id}"
        for name in CHANNEL_HOOKS:
            if hasattr(channel, name):
                _wrap_certified(channel, name, label, every)
                wrapped += 1
        for hook in SCHEDULER_HOOKS:
            _wrap_scheduler(channel, hook, every)
            wrapped += 1
    for core in system.cores:
        label = f"core{core.core_id}"
        for name in CORE_HOOKS:
            if hasattr(core, name):
                _wrap_certified(core, name, label, every)
                wrapped += 1
    hierarchy = system.hierarchy
    for name in HIERARCHY_HOOKS:
        if hasattr(hierarchy, name) and hasattr(hierarchy, "det_state"):
            _wrap_certified(hierarchy, name, "hierarchy", every)
            wrapped += 1
    return wrapped
