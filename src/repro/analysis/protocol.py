"""Shadow JEDEC DDR3 protocol sanitizer.

An independent per-bank/per-rank timing oracle.  When ``REPRO_SANITIZE=1``
every :class:`~repro.dram.controller.ChannelController` attaches one
sanitizer at construction and reports every command it executes
(:meth:`on_activate` / :meth:`on_cas` / :meth:`on_precharge` /
:meth:`on_refresh`).  The sanitizer keeps its *own* command history —
last ACTIVATE / PRECHARGE / CAS per bank, last ACTIVATE and write-data
end per rank, CAS and data-bus state per channel — and re-derives every
Table-3 constraint from that history alone:

===========  ==============================================================
tRCD         ACTIVATE -> first CAS to the same bank
tRC / tRAS   ACTIVATE -> ACTIVATE / ACTIVATE -> PRECHARGE, same bank
tRP          PRECHARGE -> ACTIVATE, same bank
tRRD         ACTIVATE -> ACTIVATE anywhere in the same rank
tFAW         at most four ACTIVATEs to a rank in any rolling window
             (``DramTimings.tFAW``, derived as ``4 * tRRD`` when unset)
tCCD         CAS -> CAS anywhere on the channel
tRTP         READ -> PRECHARGE, same bank
tWR          write data end -> PRECHARGE, same bank (write recovery)
tWTR         write data end -> READ, same rank
tRTRS        data-bus rank switch gap (via the shared bus-queue model)
tCL/tWL      CAS-to-data latency (cross-checked against the controller's
             reported burst-end cycle)
tRFC         REFRESH blocks every bank of its rank for tRFC
tREFI        per-rank refresh cadence (overdue detection)
starvation   no read may wait longer than ``starvation_factor`` times the
             configured promotion cap
===========  ==============================================================

Because none of the shadow state is shared with the controller, banks,
or schedulers, a bug in their bookkeeping cannot also hide the
violation: any disagreement raises :class:`ProtocolViolation` at the
first offending command with both sides' timelines in the message.
"""

from __future__ import annotations

import os
from collections import deque

from repro.config import DramConfig

_NEVER = -(1 << 60)


class ProtocolViolation(AssertionError):
    """A DRAM command violated a JEDEC timing or protocol constraint."""


def sanitize_enabled() -> bool:
    return os.environ.get("REPRO_SANITIZE", "") not in ("", "0")


def maybe_attach(controller) -> "ProtocolSanitizer | None":
    """Sanitizer for ``controller`` when ``REPRO_SANITIZE=1``, else None."""
    if not sanitize_enabled():
        return None
    return ProtocolSanitizer(controller.config, channel_id=controller.channel_id)


class _ShadowBank:
    """Independent record of one bank's command history."""

    __slots__ = (
        "open_row", "act_time", "pre_time", "last_read",
        "write_pre_ready", "blocked_until",
    )

    def __init__(self):
        self.open_row: int | None = None
        self.act_time = _NEVER
        self.pre_time = _NEVER
        self.last_read = _NEVER
        self.write_pre_ready = _NEVER  # tWL + burst + tWR after a WRITE
        self.blocked_until = _NEVER    # end of the rank's last REFRESH


class ProtocolSanitizer:
    """Shadow timing oracle for one DRAM channel."""

    def __init__(
        self,
        config: DramConfig,
        channel_id: int = 0,
        starvation_factor: int = 10,
    ):
        self.config = config
        self.channel_id = channel_id
        self.t = config.timings
        ranks = config.ranks_per_channel
        self.banks = [
            [_ShadowBank() for _ in range(config.banks_per_rank)]
            for _ in range(ranks)
        ]
        self.rank_last_act = [_NEVER] * ranks
        # Last four ACTIVATE issue cycles per rank (rolling tFAW window).
        self.rank_act_window = [deque(maxlen=4) for _ in range(ranks)]
        self.rank_write_data_end = [_NEVER] * ranks
        self.rank_last_ref = [0] * ranks
        self.last_cas = _NEVER
        self.bus_free = 0
        self.bus_last_rank = -1
        self.checks = 0
        self.commands = 0
        self.starvation_limit = (
            starvation_factor * config.starvation_cap_dram_cycles
        )
        self.max_read_wait = 0

    # -- internals ----------------------------------------------------------

    def _fail(self, now: int, message: str) -> None:
        raise ProtocolViolation(
            f"channel {self.channel_id} @ DRAM cycle {now}: {message}"
        )

    def _require_gap(self, now, since, gap, name, what) -> None:
        self.checks += 1
        if since != _NEVER and now < since + gap:
            self._fail(
                now,
                f"{name} violated: {what} at cycle {since} requires a "
                f"{gap}-cycle gap, but only {now - since} elapsed",
            )

    # -- observed commands ----------------------------------------------------

    def on_activate(self, rank: int, bank: int, row: int, now: int) -> None:
        self.commands += 1
        shadow = self.banks[rank][bank]
        self.checks += 1
        if shadow.open_row is not None:
            self._fail(
                now,
                f"ACTIVATE to bank ({rank},{bank}) which already has row "
                f"{shadow.open_row} open",
            )
        t = self.t
        self._require_gap(now, shadow.pre_time, t.tRP, "tRP",
                          f"PRECHARGE of bank ({rank},{bank})")
        self._require_gap(now, shadow.act_time, t.tRC, "tRC",
                          f"ACTIVATE of bank ({rank},{bank})")
        self._require_gap(now, self.rank_last_act[rank], t.tRRD, "tRRD",
                          f"ACTIVATE in rank {rank}")
        window = self.rank_act_window[rank]
        self.checks += 1
        if len(window) == 4 and now < window[0] + t.effective_tFAW:
            self._fail(
                now,
                f"tFAW violated: fifth ACTIVATE to rank {rank} only "
                f"{now - window[0]} cycles after the ACTIVATE at "
                f"{window[0]} (window {t.effective_tFAW})",
            )
        self.checks += 1
        if now < shadow.blocked_until:
            self._fail(
                now,
                f"ACTIVATE to bank ({rank},{bank}) during refresh "
                f"(rank blocked until {shadow.blocked_until}, tRFC)",
            )
        shadow.open_row = row
        shadow.act_time = now
        self.rank_last_act[rank] = now
        window.append(now)

    def on_cas(
        self,
        rank: int,
        bank: int,
        row: int,
        now: int,
        is_write: bool,
        data_end: int,
        arrival: int,
    ) -> None:
        self.commands += 1
        shadow = self.banks[rank][bank]
        kind = "WRITE" if is_write else "READ"
        t = self.t
        self.checks += 1
        if shadow.open_row != row:
            self._fail(
                now,
                f"{kind} to ({rank},{bank}) row {row} but shadow open row "
                f"is {shadow.open_row}",
            )
        self._require_gap(now, shadow.act_time, t.tRCD, "tRCD",
                          f"ACTIVATE of bank ({rank},{bank})")
        self._require_gap(now, self.last_cas, t.tCCD, "tCCD", "previous CAS")
        if not is_write:
            self._require_gap(
                now, self.rank_write_data_end[rank], t.tWTR, "tWTR",
                f"write data end in rank {rank}",
            )
        # Shared data bus: replay the controller's bus-queue model and
        # cross-check the burst-end cycle it reported (tCL/tWL/tRTRS/burst).
        data_start = now + (t.tWL if is_write else t.tCL)
        bus_free = self.bus_free
        if self.bus_last_rank not in (-1, rank):
            bus_free += t.tRTRS
        if data_start < bus_free:
            data_start = bus_free
        expected_end = data_start + t.burst_cycles
        self.checks += 1
        if data_end != expected_end:
            self._fail(
                now,
                f"{kind} burst-end mismatch: controller reported cycle "
                f"{data_end}, shadow bus model derives {expected_end} "
                f"(bus free {self.bus_free}, last rank {self.bus_last_rank})",
            )
        if not is_write:
            wait = now - arrival
            if wait > self.max_read_wait:
                self.max_read_wait = wait
            self.checks += 1
            if wait > self.starvation_limit:
                self._fail(
                    now,
                    f"starvation: READ waited {wait} DRAM cycles "
                    f"(limit {self.starvation_limit})",
                )
        self.last_cas = now
        self.bus_free = expected_end
        self.bus_last_rank = rank
        if is_write:
            self.rank_write_data_end[rank] = max(
                self.rank_write_data_end[rank], expected_end
            )
            shadow.write_pre_ready = now + t.tWL + t.burst_cycles + t.tWR
        else:
            shadow.last_read = now

    def on_precharge(self, rank: int, bank: int, now: int) -> None:
        self.commands += 1
        shadow = self.banks[rank][bank]
        t = self.t
        self.checks += 1
        if shadow.open_row is None:
            self._fail(now, f"PRECHARGE of bank ({rank},{bank}) which is closed")
        self._require_gap(now, shadow.act_time, t.tRAS, "tRAS",
                          f"ACTIVATE of bank ({rank},{bank})")
        self._require_gap(now, shadow.last_read, t.tRTP, "tRTP",
                          f"READ from bank ({rank},{bank})")
        self.checks += 1
        if now < shadow.write_pre_ready:
            self._fail(
                now,
                f"tWR violated: PRECHARGE of bank ({rank},{bank}) before "
                f"write recovery completes at {shadow.write_pre_ready}",
            )
        shadow.open_row = None
        shadow.pre_time = now

    def on_refresh(self, rank: int, now: int) -> None:
        self.commands += 1
        t = self.t
        for index, shadow in enumerate(self.banks[rank]):
            self.checks += 1
            if shadow.open_row is not None:
                self._fail(
                    now,
                    f"REFRESH of rank {rank} with bank {index} open "
                    f"(row {shadow.open_row})",
                )
            self._require_gap(now, shadow.pre_time, t.tRP, "tRP",
                              f"PRECHARGE of bank ({rank},{index})")
            self._require_gap(now, shadow.act_time, t.tRC, "tRC",
                              f"ACTIVATE of bank ({rank},{index})")
            self.checks += 1
            if now < shadow.blocked_until:
                self._fail(
                    now,
                    f"REFRESH of rank {rank} before the previous refresh "
                    f"completes at {shadow.blocked_until} (tRFC)",
                )
        self._check_refresh_cadence(rank, now)
        done = now + t.tRFC
        for shadow in self.banks[rank]:
            shadow.blocked_until = done
        self.rank_last_ref[rank] = now

    def _check_refresh_cadence(self, rank: int, now: int) -> None:
        """Per-rank tREFI cadence: a rank must not go unrefreshed too long.

        Rank deadlines are staggered across the first interval and a due
        refresh may slip while open banks drain, so the hard bound is two
        full intervals plus a drain allowance.
        """
        interval = self.t.refresh_interval_cycles
        allowance = 2 * interval + self.t.tRFC + 64
        self.checks += 1
        gap = now - self.rank_last_ref[rank]
        if gap > allowance:
            self._fail(
                now,
                f"refresh overdue: rank {rank} last refreshed at "
                f"{self.rank_last_ref[rank]}, {gap} cycles ago "
                f"(tREFI={interval}, allowed {allowance})",
            )

    # -- end of run ------------------------------------------------------------

    def finish(self, now: int) -> None:
        """End-of-run check: no rank may end the run overdue for refresh."""
        interval = self.t.refresh_interval_cycles
        allowance = 2 * interval + self.t.tRFC + 64
        for rank, last in enumerate(self.rank_last_ref):
            self.checks += 1
            if now - last > allowance:
                self._fail(
                    now,
                    f"run ended with rank {rank} overdue for refresh: last "
                    f"refresh at {last}, {now - last} cycles ago "
                    f"(tREFI={interval}, allowed {allowance})",
                )
