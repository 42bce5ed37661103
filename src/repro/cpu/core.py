"""The execution core.

:class:`Core` is the machine's engine room: all simulated code — user
benchmark, measurement library, kernel handler — retires through
:meth:`Core.retire`, which charges the counters the PMU bound to the
current privilege level, advances the TSC and the cycle clock, and
hands control to the interrupt controller when a deadline is due.

Loops execute in closed form, sliced at interrupt deadlines, so a
billion-iteration benchmark costs O(number of interrupts) host work
while every retired instruction is still counted exactly.  This is the
property that lets the accuracy study's ground truth (``1 + 3·MAX``
instructions) hold to the instruction.

Privilege is enforced where the hardware enforces it: ``RDMSR``/
``WRMSR`` fault outside kernel mode, ``RDPMC`` faults in user mode
unless the kernel set ``CR4.PCE`` (which is precisely what perfctr does
to enable its fast user-mode read path — paper, Section 4.1).
"""

from __future__ import annotations

import contextlib
import math
from typing import Iterator, Protocol

import numpy as np

from repro.cpu.events import Event, PrivLevel
from repro.cpu.frequency import FrequencyPolicy, Governor
from repro.cpu.models.base import MicroArch
from repro.cpu.msr import MsrFile
from repro.cpu.timing import TimingModel
from repro.errors import PrivilegeError
from repro.isa.block import Block, Chunk, Loop
from repro.isa.work import WorkVector


#: Wall-clock slack under which a deadline counts as "due" (guards
#: against float rounding when converting cycles to seconds).
DEADLINE_EPSILON_S = 1e-15


class InterruptSource(Protocol):
    """What the core needs from an interrupt controller."""

    #: Wall-clock time of the earliest pending interrupt (``inf`` when
    #: none can fire).  The core calls :meth:`poll` only once its clock
    #: is within :data:`DEADLINE_EPSILON_S` of it.
    next_deadline_s: float

    def cycles_until_next(self, core: "Core") -> float | None:
        """Core cycles until the next pending interrupt, or None."""

    def poll(self, core: "Core") -> None:
        """Deliver any interrupts that are due at the core's clock."""


class Core:
    """One simulated processor core.

    Args:
        uarch: the micro-architecture to instantiate.
        rng: seeded randomness for the core's micro-state noise
            (counter skid at interrupt boundaries, loop warm-up).
        governor: cpufreq governor pinning or wandering the clock.
        timing: the timing model; built from ``uarch`` when omitted.
        cycle_memos: straight-line cycle costs of ``timing``, keyed by
            clock ratio and then by work vector.  Boot images share one
            mapping across every machine they boot; a private one is
            made when omitted.
    """

    def __init__(
        self,
        uarch: MicroArch,
        rng: np.random.Generator,
        governor: Governor = Governor.PERFORMANCE,
        timing: TimingModel | None = None,
        cycle_memos: dict[float, dict[WorkVector, float]] | None = None,
    ) -> None:
        self.uarch = uarch
        self.rng = rng
        self.pmu = uarch.make_pmu()
        self.msr = MsrFile(self.pmu, uarch.event_codes)
        # The timing model is a frozen value object: boot snapshots
        # (:mod:`repro.kernel.snapshot`) share one instance across every
        # machine booted from the same template.
        self.timing = timing if timing is not None else uarch.make_timing()
        self.freq = FrequencyPolicy(
            p_states_hz=uarch.p_states_hz(), governor=governor
        )
        self.mode = PrivLevel.KERNEL
        self.cycle = 0.0
        self.wall_s = 0.0
        self.user_rdpmc_enabled = False
        self.interrupt_source: InterruptSource | None = None
        self.interrupts_masked = False
        #: Probability that an interrupt boundary skids the user-mode
        #: instruction count, and the direction bias of that skid.
        #: These model the counter start/stop race at privilege
        #: transitions and produce the tiny ± user-mode drift of the
        #: paper's Figure 8.  Configured by the kernel at boot.
        self.skid_probability = 0.0
        self.skid_bias = 0.0
        self.skid_magnitude = 1
        #: Maximum cache warm-up cycles charged once per loop execution.
        self.loop_warmup_cycles = 150.0
        #: Optional retirement observer (see :mod:`repro.trace`).
        self.tracer = None
        # -- hot-loop memoization (pure derived values) -------------------
        # Cycle costs depend only on (timing, work, clock ratio) and loop
        # CPI only on (body, address, clock ratio); under the paper's
        # pinned PERFORMANCE governor the ratio never changes, so these
        # memos turn the per-retirement timing-model walk into a dict
        # hit.  ``_memo_hz`` tracks the clock the memos were computed
        # at; a governor retune (ondemand) switches the cycle memo to
        # the new ratio's and drops the loop CPIs.
        self._cycle_memos = cycle_memos if cycle_memos is not None else {}
        self._memo_hz = self.freq.current_hz
        self._work_cycles_memo = self._cycle_memos.setdefault(
            self._memo_hz / uarch.freq_hz, {}
        )
        self._loop_cpi_memo: dict[tuple[Chunk, int], float] = {}

    def _invalidate_timing_memos(self, current_hz: float) -> None:
        """Re-key derived cycle costs after a governor retune."""
        self._memo_hz = current_hz
        self._work_cycles_memo = self._cycle_memos.setdefault(
            current_hz / self.uarch.freq_hz, {}
        )
        self._loop_cpi_memo.clear()

    # -- retirement --------------------------------------------------------

    def retire(
        self,
        work: WorkVector,
        cycles: float | None = None,
        label: str = "",
    ) -> None:
        """Retire straight-line work in the current privilege mode."""
        if work.instructions == 0 and not cycles:
            return
        if cycles is None:
            current_hz = self.freq.current_hz
            if current_hz != self._memo_hz:
                self._invalidate_timing_memos(current_hz)
            cycles = self._work_cycles_memo.get(work)
            if cycles is None:
                cycles = self.timing.cycles_for_work(
                    work, current_hz / self.uarch.freq_hz
                )
                if len(self._work_cycles_memo) >= 4096:
                    self._work_cycles_memo.clear()
                self._work_cycles_memo[work] = cycles
        if self.tracer is not None:
            self.tracer.record(label, self.mode, work, cycles)
        self.pmu.charge(work.amounts + (cycles, cycles * 0.1), self.mode)
        # The charge may have run an overflow handler that retuned the
        # clock, so the frequency is read only now.
        self.cycle += cycles
        self.wall_s += cycles / self.freq.current_hz
        self.pmu.advance_tsc(cycles)
        source = self.interrupt_source
        if (
            source is not None
            and source.next_deadline_s <= self.wall_s + DEADLINE_EPSILON_S
            and not self.interrupts_masked
        ):
            source.poll(self)

    def execute_chunk(self, chunk: Chunk) -> None:
        """Retire one straight-line chunk."""
        self.retire(chunk.work, label=chunk.label)

    def execute_block(self, block: Block, address: int = 0) -> None:
        """Execute a block; loops inside are placed at ``address``."""
        offset = 0
        for item in block:
            if isinstance(item, Loop):
                self.execute_loop(item, address + offset)
                offset += item.size_bytes
            else:
                self.execute_chunk(item)
                offset += item.size_bytes

    def execute_loop(self, loop: Loop, address: int) -> None:
        """Execute a counted loop placed at ``address``.

        Iterations are retired in closed-form slices that end at
        interrupt deadlines, so handlers run at the cycle they are due
        and their kernel-mode work lands inside the measurement — the
        mechanism behind the paper's duration-dependent error
        (Section 5).
        """
        self.execute_chunk(loop.header)
        if loop.trips == 0:
            return
        body_address = address + loop.header.size_bytes
        if self.loop_warmup_cycles > 0:
            # First-iteration cache/predictor warm-up: cycles only.
            self.retire(WorkVector.zero(),
                        cycles=float(self.rng.uniform(0, self.loop_warmup_cycles)))
        remaining = loop.trips
        memo_key = (loop.body, body_address)
        while remaining > 0:
            # An interrupt may have retuned the clock (ondemand
            # governor), changing memory latency in cycles; the memo is
            # keyed to the clock via ``_memo_hz`` and invalidated on
            # retune, so under the pinned PERFORMANCE governor the CPI
            # is computed once per (body, address) instead of per slice.
            current_hz = self.freq.current_hz
            if current_hz != self._memo_hz:
                self._invalidate_timing_memos(current_hz)
            cpi = self._loop_cpi_memo.get(memo_key)
            if cpi is None:
                cpi = self.timing.loop_cycles_per_iteration(
                    loop.body, body_address,
                    current_hz / self.uarch.freq_hz,
                )
                if len(self._loop_cpi_memo) >= 4096:
                    self._loop_cpi_memo.clear()
                self._loop_cpi_memo[memo_key] = cpi
            trips = remaining
            horizon = self._cycles_until_interrupt()
            if horizon is not None:
                due = max(1, math.ceil(horizon / cpi))
                trips = min(remaining, due)
            self.retire(loop.body.work * trips, cycles=trips * cpi,
                        label=loop.label or loop.body.label)
            remaining -= trips

    # -- counter-access instructions ---------------------------------------

    def rdtsc(self) -> int:
        """RDTSC: read the time stamp counter (1 retired instruction)."""
        self.retire(WorkVector.single("alu"), label="rdtsc")
        return self.pmu.read_tsc()

    def rdpmc(self, index: int) -> int:
        """RDPMC: read a programmable counter (1 retired instruction).

        Faults in user mode unless the kernel enabled CR4.PCE.
        """
        if self.mode is PrivLevel.USER and not self.user_rdpmc_enabled:
            raise PrivilegeError(
                "RDPMC in user mode with CR4.PCE clear raises #GP"
            )
        self.retire(WorkVector.single("alu"), label="rdpmc")
        return self.pmu.read(index)

    def rdmsr(self, address: int) -> int:
        """RDMSR: kernel-only read of a model-specific register."""
        if self.mode is not PrivLevel.KERNEL:
            raise PrivilegeError("RDMSR outside kernel mode raises #GP")
        self.retire(WorkVector.single("serializing"), label="rdmsr")
        return self.msr.read(address)

    def wrmsr(self, address: int, value: int) -> None:
        """WRMSR: kernel-only write of a model-specific register."""
        if self.mode is not PrivLevel.KERNEL:
            raise PrivilegeError("WRMSR outside kernel mode raises #GP")
        self.retire(WorkVector.single("serializing"), label="wrmsr")
        self.msr.write(address, value)

    # -- privilege transitions ---------------------------------------------

    @contextlib.contextmanager
    def kernel_mode(self) -> Iterator[None]:
        """Run the body at CPL 0, restoring the previous level after."""
        previous = self.mode
        self.mode = PrivLevel.KERNEL
        try:
            yield
        finally:
            self.mode = previous

    @contextlib.contextmanager
    def masked_interrupts(self) -> Iterator[None]:
        """Run the body with interrupt delivery suppressed."""
        previous = self.interrupts_masked
        self.interrupts_masked = True
        try:
            yield
        finally:
            self.interrupts_masked = previous

    # -- interrupt support ---------------------------------------------------

    def apply_interrupt_skid(self) -> None:
        """Charge the counter race at an interrupt boundary.

        With probability ``skid_probability`` the user-mode instruction
        count gains or loses one instruction, with expectation
        ``skid_bias``; this is the only mechanism through which the
        user-mode count can deviate from ground truth, and it is tiny —
        matching the paper's Figure 8 (|slope| of a few 1e-6 per
        iteration, either sign).
        """
        if self.skid_probability <= 0:
            return
        if self.rng.random() >= self.skid_probability:
            return
        p_up = (1.0 + self.skid_bias) / 2.0
        sign = 1 if self.rng.random() < p_up else -1
        delta = sign * self.skid_magnitude
        self.pmu.count({Event.INSTR_RETIRED: delta}, PrivLevel.USER)

    def _cycles_until_interrupt(self) -> float | None:
        if self.interrupt_source is None or self.interrupts_masked:
            return None
        return self.interrupt_source.cycles_until_next(self)
