"""Hot-loop memoization: determinism under retunes and reentrancy.

The memos behind :meth:`~repro.cpu.core.Core.retire` (work-cycle costs
shared through the boot image, loop CPI, each work vector's amounts
tuple) are pure caches — they must never change a single count, even
when the ondemand governor retunes the clock mid-loop or an overflow
handler re-enters ``retire``.
"""

import numpy as np

from repro.cpu.core import Core
from repro.cpu.events import Event, PrivFilter, events_from_work
from repro.cpu.frequency import Governor
from repro.cpu.models import microarch
from repro.cpu.pmu import CounterConfig
from repro.isa.builder import CodeBuilder
from repro.isa.work import WorkVector
from repro.kernel.snapshot import BootImage
from repro.kernel.system import Machine


def fresh_core(governor=Governor.PERFORMANCE, seed=0):
    return Core(microarch("CD"), np.random.default_rng(seed), governor=governor)


def counting(core, event=Event.INSTR_RETIRED, interrupt_on_overflow=False):
    core.pmu.program(
        0,
        CounterConfig(
            event=event,
            priv=PrivFilter.ALL,
            enabled=True,
            interrupt_on_overflow=interrupt_on_overflow,
        ),
    )


def loop_of(trips):
    from repro.isa.block import Loop

    body = CodeBuilder("body").alu(3).load(1).build()
    header = CodeBuilder("header").alu(2).build()
    return Loop(body=body, trips=trips, header=header, label="loop")


class TestTimingMemos:
    def test_repeated_retires_hit_the_memo(self):
        core = fresh_core()
        work = WorkVector(instructions=10, loads=2)
        core.retire(work)
        assert work in core._work_cycles_memo
        before = dict(core._work_cycles_memo)
        core.retire(work)
        assert core._work_cycles_memo == before

    def test_clock_change_invalidates_memos(self):
        core = fresh_core(governor=Governor.ONDEMAND)
        work = WorkVector(instructions=10, loads=2)
        core.retire(work)
        assert core._work_cycles_memo
        other = next(
            hz for hz in core.freq.p_states_hz
            if hz != core.freq.current_hz
        )
        core.freq.current_hz = other  # what a governor retune does
        core.retire(work)
        assert core._memo_hz == other
        # The memo was rebuilt at the new clock, not reused stale.
        assert list(core._work_cycles_memo) == [work]

    def test_counts_deterministic_under_ondemand(self):
        """Memoized runs must replay each other exactly, retunes and all."""
        def run(seed):
            machine = Machine(seed=seed, governor=Governor.ONDEMAND)
            counting(machine.core)
            machine.core.execute_loop(loop_of(50_000), address=0x1000)
            return machine.core.pmu.read(0), machine.core.cycle

        assert run(3) == run(3)

    def test_loop_cpi_memo_is_keyed_by_body_and_address(self):
        core = fresh_core()
        core.loop_warmup_cycles = 0.0
        loop = loop_of(100)
        core.execute_loop(loop, address=0x1000)
        core.execute_loop(loop, address=0x2000)
        assert len(core._loop_cpi_memo) == 2
        assert {address for _, address in core._loop_cpi_memo} == {
            0x1000 + loop.header.size_bytes,
            0x2000 + loop.header.size_bytes,
        }


class TestSharedCycleMemo:
    def test_boots_of_one_image_share_the_memo(self):
        image = BootImage.capture("CD", "perfctr")
        first = Machine(seed=1, image=image)
        second = Machine(seed=2, image=image)
        assert first.core._work_cycles_memo is second.core._work_cycles_memo
        work = WorkVector(instructions=9, stores=2)
        first.core.retire(work)
        assert work in second.core._work_cycles_memo

    def test_memo_is_keyed_by_clock_ratio(self):
        machine = Machine(seed=0, governor=Governor.ONDEMAND)
        core = machine.core
        work = WorkVector(instructions=10, loads=2)
        core.retire(work)
        other = next(
            hz for hz in core.freq.p_states_hz if hz != core.freq.current_hz
        )
        core.freq.current_hz = other
        core.retire(work)
        memos = machine.image.cycle_memos
        ratio = other / core.uarch.freq_hz
        assert core._work_cycles_memo is memos[ratio]
        cycles, _charge = memos[ratio][work]
        assert cycles == core.timing.cycles_for_work(work, ratio)


class TestSharedDeltaBuffers:
    """The per-work data every retirement reads is shared, never written."""

    def test_event_amounts_are_shared_and_stable(self):
        work = WorkVector(instructions=7, branches=1)
        assert work.amounts is work.amounts
        assert work.amounts == (7, 1, 0, 0, 0, 0)
        assert events_from_work(work)[Event.INSTR_RETIRED] == 7
        assert WorkVector.single("load") is WorkVector.single("load")

    def test_retire_does_not_corrupt_the_shared_mapping(self):
        machine = Machine(seed=0)
        core = machine.core
        counting(core, event=Event.CYCLES)
        work = WorkVector(instructions=5)
        alu = WorkVector.single("alu")
        for _ in range(3):
            core.retire(work)
            core.retire(alu)
        # The charge vector appends cycles to a new tuple; the shared
        # amounts and the image's cycle memo keep their values.
        assert work.amounts == (5, 0, 0, 0, 0, 0)
        assert alu.amounts == (1, 0, 0, 0, 0, 0)
        ratio = core.freq.current_hz / core.uarch.freq_hz
        memo = machine.image.cycle_memos[ratio]
        work_cycles, _charge = memo[work]
        alu_cycles, _charge = memo[alu]
        assert work_cycles == core.timing.cycles_for_work(work, ratio)
        assert alu_cycles == core.timing.cycles_for_work(alu, ratio)

    def test_reentrant_retire_via_overflow_handler(self):
        """A sampling-mode overflow callback re-enters retire() while the
        outer retire is mid-charge; both charges must land in full."""
        core = fresh_core()
        counting(core, interrupt_on_overflow=True)
        limit = core.pmu.counters[0].limit
        core.pmu.write(0, limit - 5)
        calls = []

        def handler(index):
            calls.append(index)
            if len(calls) == 1:
                core.retire(WorkVector(instructions=3), label="overflow")

        core.pmu.on_overflow = handler
        core.retire(WorkVector(instructions=10, loads=2), label="outer")
        assert len(calls) == 1
        # limit-5 start, +10 outer +3 nested, one wrap: 8 remain.
        assert core.pmu.read(0) == 8
        core.retire(WorkVector(instructions=4))
        assert core.pmu.read(0) == 12


class TestChargeIsStateless:
    def test_back_to_back_retires_charge_independently(self):
        core = fresh_core()
        counting(core)
        core.retire(WorkVector(instructions=4))
        core.retire(WorkVector(instructions=6, branches=1))
        assert core.pmu.read(0) == 10

    def test_retire_recovers_after_pmu_error(self):
        core = fresh_core()
        counting(core)

        class Boom(Exception):
            pass

        def exploding(amounts, mode):
            raise Boom()

        core.pmu.charge = exploding
        try:
            core.retire(WorkVector(instructions=4))
        except Boom:
            pass
        del core.pmu.charge
        core.retire(WorkVector(instructions=4))
        assert core.pmu.read(0) == 4
