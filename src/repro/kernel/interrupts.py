"""Interrupt delivery: the periodic timer tick and stochastic I/O.

Interrupt handlers run in kernel mode and are attributed to whatever
counters are live when they fire — i.e. to the *currently running
thread's* virtualized counters.  This is the mechanism the paper
identifies behind the duration-dependent measurement error (Section 5):
the longer a measured region runs, the more timer ticks land inside it,
each depositing a few thousand kernel-mode instructions into the
user+kernel counts.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from repro.cpu.core import DEADLINE_EPSILON_S
from repro.cpu.frequency import Governor
from repro.kernel.calibration import KernelBuildConfig
from repro.kernel.kcode import kernel_chunk
from repro.kernel.snapshot import KernelChunkSet

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cpu.core import Core
    from repro.kernel.scheduler import Scheduler


class InterruptController:
    """Schedules and delivers timer and I/O interrupts to one core.

    Implements the :class:`repro.cpu.core.InterruptSource` protocol.

    Args:
        build: the kernel build (HZ, handler sizes, extension hooks).
        scheduler: notified on every timer tick.
        io_interrupts: set False to disable non-timer interrupts
            (useful for deterministic unit tests).
        chunks: prebuilt handler chunks from a boot snapshot; built
            from ``build`` when omitted.

    The controller delivers nothing until :meth:`reset` hands it the
    machine's seeded generator (interrupt phase, I/O arrivals, I/O
    handler sizes) and draws the first deadlines from it.

    ``next_deadline_s`` always holds the earliest of ``next_timer_s``
    and ``next_io_s`` (``inf`` while the controller is disabled): every
    assignment to those three attributes, from anywhere, refreshes it.
    The core compares its clock against it after each retirement and
    calls :meth:`poll` only when it is due.
    """

    def __init__(
        self,
        build: KernelBuildConfig,
        scheduler: "Scheduler",
        io_interrupts: bool = True,
        chunks: KernelChunkSet | None = None,
    ) -> None:
        self.build = build
        self.scheduler = scheduler
        self.tick_period_s, self.io_rate_hz = _rates(build, io_interrupts)
        if chunks is None:
            chunks = KernelChunkSet.for_build(build)
        self._irq_entry = chunks.irq_entry
        self._irq_exit = chunks.irq_exit
        self._tick_body = chunks.timer_tick
        self._ext_hook = chunks.ext_tick_hook
        self._governor_body = chunks.governor

    def reset(self, rng: np.random.Generator) -> None:
        """Enable delivery, draw the first timer and I/O deadlines from
        ``rng`` (:func:`first_deadlines`) and zero the delivered
        counts."""
        self.rng = rng
        self._enabled = True
        self._next_timer_s, self._next_io_s = first_deadlines(
            rng, self.tick_period_s, self.io_rate_hz
        )
        self._refresh_deadline()
        self.ticks_delivered = 0
        self.io_delivered = 0

    # -- deadline state ------------------------------------------------------

    @property
    def enabled(self) -> bool:
        return self._enabled

    @enabled.setter
    def enabled(self, value: bool) -> None:
        self._enabled = value
        self._refresh_deadline()

    @property
    def next_timer_s(self) -> float:
        return self._next_timer_s

    @next_timer_s.setter
    def next_timer_s(self, value: float) -> None:
        self._next_timer_s = value
        self._refresh_deadline()

    @property
    def next_io_s(self) -> float | None:
        return self._next_io_s

    @next_io_s.setter
    def next_io_s(self, value: float | None) -> None:
        self._next_io_s = value
        self._refresh_deadline()

    def _refresh_deadline(self) -> None:
        timer, io = self._next_timer_s, self._next_io_s
        if not self._enabled:
            self.next_deadline_s = math.inf
        elif io is None or timer <= io:
            self.next_deadline_s = timer
        else:
            self.next_deadline_s = io

    # -- InterruptSource protocol -----------------------------------------

    def cycles_until_next(self, core: "Core") -> float | None:
        """Core cycles until the earliest pending interrupt."""
        if not self._enabled:
            return None
        return max(
            0.0, (self.next_deadline_s - core.wall_s) * core.freq.current_hz
        )

    def poll(self, core: "Core") -> None:
        """Deliver every interrupt that is due at the core's clock."""
        # A handler advances the clock, so new deadlines can become due
        # while delivering; bound the loop defensively.
        for _ in range(1_000_000):
            deadline = self.next_deadline_s
            if deadline > core.wall_s + DEADLINE_EPSILON_S:
                return
            if deadline == self._next_timer_s:
                self._deliver_timer(core)
            else:
                self._deliver_io(core)
        raise RuntimeError("interrupt delivery did not converge")

    # -- delivery -----------------------------------------------------------

    def _deliver_timer(self, core: "Core") -> None:
        self.next_timer_s += self.tick_period_s
        self.ticks_delivered += 1
        core.apply_interrupt_skid()
        with core.masked_interrupts(), core.kernel_mode():
            core.execute_chunk(self._irq_entry)
            core.execute_chunk(self._tick_body)
            if self._ext_hook is not None:
                core.execute_chunk(self._ext_hook)
            if core.freq.governor is Governor.ONDEMAND:
                core.execute_chunk(self._governor_body)
                core.freq.on_decision_point(self.rng)
            self.scheduler.on_tick()
            core.execute_chunk(self._irq_exit)

    def _deliver_io(self, core: "Core") -> None:
        assert self.next_io_s is not None
        self.next_io_s = _io_arrival(self.rng, self.io_rate_hz, self.next_io_s)
        self.io_delivered += 1
        lo, hi = self.build.io_handler_instructions
        body = kernel_chunk(int(self.rng.integers(lo, hi + 1)), "kernel:io-irq")
        core.apply_interrupt_skid()
        with core.masked_interrupts(), core.kernel_mode():
            core.execute_chunk(self._irq_entry)
            core.execute_chunk(body)
            core.execute_chunk(self._irq_exit)


def _rates(
    build: KernelBuildConfig, io_interrupts: bool
) -> tuple[float, float]:
    """A controller's tick period and I/O arrival rate (0 when off)."""
    return 1.0 / build.hz, build.io_irq_rate_hz if io_interrupts else 0.0


def _io_arrival(
    rng: np.random.Generator, io_rate_hz: float, now_s: float
) -> float | None:
    if io_rate_hz <= 0:
        return None
    return now_s + float(rng.exponential(1.0 / io_rate_hz))


def first_deadlines(
    rng: np.random.Generator, tick_period_s: float, io_rate_hz: float
) -> tuple[float, float | None]:
    """The first timer deadline and the first I/O arrival (None without
    I/O interrupts) a controller draws from its reset's generator."""
    # Random phase: successive boots see interrupts at different
    # offsets, which is what turns rare interrupt hits into the
    # outliers of the paper's box plots.
    timer = float(rng.uniform(0, tick_period_s))
    return timer, _io_arrival(rng, io_rate_hz, 0.0)


def first_deadline_s(
    seed: int, build: KernelBuildConfig, io_interrupts: bool
) -> float:
    """When the first interrupt of a machine booted with ``seed`` on
    ``build`` is due, found without a machine: the generator a reset
    seeds makes no draw before the controller's, so these are the
    controller's own first deadlines."""
    timer, io = first_deadlines(
        np.random.default_rng(seed), *_rates(build, io_interrupts)
    )
    return timer if io is None or timer <= io else io
