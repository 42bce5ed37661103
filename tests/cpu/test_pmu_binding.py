"""Counters bound at programming time count exactly as the scan did.

The PMU binds every live counter to a slot of the charge vector when it
is programmed, and :meth:`~repro.cpu.core.Core.retire` polls the
interrupt controller only once its cached deadline is due.  Both
replace per-retirement work: an event dict, a privilege test per
counter, and a poll after every retirement.  The references here keep
that old work, and seeded random programs drive them side by side with
the real thing; every counter value must match exactly.
"""

from __future__ import annotations

import math
import random
from typing import Callable

import pytest

from repro.cpu import fastforward
from repro.cpu.events import SLOT_EVENTS, Event, PrivFilter, PrivLevel
from repro.cpu.pmu import CounterConfig, Pmu
from repro.errors import CounterError
from repro.isa.block import Chunk, Loop
from repro.isa.work import WorkVector
from repro.kernel.system import Machine
from repro.perfctr.libperfctr import LibPerfctr
from repro.sampling.profiler import SamplingProfiler

PRIVS = (PrivFilter.NONE, PrivFilter.USR, PrivFilter.OS, PrivFilter.ALL)
EVENTS = tuple(Event)
LEVELS = (PrivLevel.USER, PrivLevel.KERNEL)
N_PROG = 4
WIDTH = 12  # small, so plain and overflow-raising counters wrap often


class ScanPmu(Pmu):
    """The PMU before bindings: each charge builds an event dict and
    scans every counter, testing its privilege filter."""

    def charge(self, amounts, level):
        self.count(dict(zip(SLOT_EVENTS, amounts)), level)

    def count(self, deltas, level):
        for counter in self.counters:
            config = counter.config
            if config is None or not config.enabled:
                continue
            if not config.priv.matches(level):
                continue
            amount = deltas.get(config.event, 0)
            if not amount:
                continue
            if config.interrupt_on_overflow and self.on_overflow is not None:
                self._accumulate_with_overflow(counter, float(amount))
            else:
                counter.add(amount)
        for fixed in self.fixed:
            if fixed.priv is PrivFilter.NONE or not fixed.priv.matches(level):
                continue
            amount = deltas.get(fixed.event, 0)
            if amount:
                fixed.add(amount)


def make_pair() -> tuple[Pmu, Pmu]:
    fixed = (Event.INSTR_RETIRED, Event.CYCLES, Event.BUS_CYCLES)
    return (
        Pmu(N_PROG, fixed_events=fixed, counter_width=WIDTH),
        ScanPmu(N_PROG, fixed_events=fixed, counter_width=WIDTH),
    )


def pmu_state(pmu: Pmu) -> tuple:
    return (
        [(c.config, c._value) for c in pmu.counters],
        [(f.priv, f._value) for f in pmu.fixed],
    )


def random_config(rnd: random.Random) -> CounterConfig:
    return CounterConfig(
        event=rnd.choice(EVENTS),
        priv=rnd.choice(PRIVS),
        enabled=rnd.random() < 0.8,
        interrupt_on_overflow=rnd.random() < 0.3,
    )


def random_work(rnd: random.Random) -> WorkVector:
    branches = rnd.randint(0, 40)
    loads = rnd.randint(0, 60)
    serializing = rnd.randint(0, 3)
    return WorkVector(
        instructions=branches + serializing + rnd.randint(0, 900),
        branches=branches,
        taken_branches=rnd.randint(0, branches),
        loads=loads,
        stores=rnd.randint(0, 30),
        serializing=serializing,
        dcache_misses=rnd.randint(0, loads),
    )


def reprogramming_handler(
    pmu: Pmu, seed: int, log: list
) -> Callable[[int], None]:
    """An overflow handler that re-arms the counter that wrapped and
    reprograms the next one, in the middle of the charge."""
    rnd = random.Random(seed)

    def handler(index: int) -> None:
        log.append((index, pmu_state(pmu)))
        pmu.write(index, pmu.counters[index].limit - rnd.randint(64, 900))
        if index + 1 < pmu.n_programmable:
            pmu.program(index + 1, random_config(rnd))

    return handler


def apply(pmu: Pmu, op: tuple) -> object:
    """Run one program step; CounterErrors are part of the outcome."""
    name, *args = op
    try:
        if name == "charge":
            work, cycles, level = args
            pmu.charge(work.amounts + (cycles, cycles * 0.1), level)
        elif name == "skid":
            pmu.count({Event.INSTR_RETIRED: args[0]}, PrivLevel.USER)
        else:
            getattr(pmu, name)(*args)
    except CounterError as exc:
        return str(exc)
    return None


def random_program(seed: int, steps: int) -> list[tuple]:
    rnd = random.Random(seed)
    ops: list[tuple] = []
    for _ in range(steps):
        kind = rnd.choices(
            ["program", "enable", "disable", "disable_all", "configure_fixed",
             "write", "charge", "skid", "switch", "handler"],
            weights=[6, 3, 2, 1, 3, 2, 20, 2, 3, 2],
        )[0]
        index = rnd.randrange(N_PROG)
        if kind == "program":
            ops.append(("program", index, random_config(rnd)))
        elif kind in ("enable", "disable"):
            ops.append((kind, index))
        elif kind == "disable_all":
            ops.append(("disable_all",))
        elif kind == "configure_fixed":
            ops.append(("configure_fixed", rnd.randrange(3), rnd.choice(PRIVS)))
        elif kind == "write":
            ops.append(("write", index, rnd.randrange(1 << WIDTH)))
        elif kind == "charge":
            cycles = rnd.choice([0.0, rnd.uniform(0.0, 6000.0)])
            ops.append(("charge", random_work(rnd), cycles, rnd.choice(LEVELS)))
        elif kind == "skid":
            ops.append(("skid", rnd.choice([-1, 1])))
        else:
            ops.append((kind, rnd.randrange(1 << 30)))
    return ops


def run_program(pmu: Pmu, ops: list[tuple]) -> list:
    """Apply ``ops``; returns the state trail after every step."""
    trail: list = []
    log: list = []
    saved: list = [None, None]
    current = 0
    for op in ops:
        if op[0] == "switch":
            # A context switch: save the outgoing thread's PMU state and
            # restore the incoming thread's, if it ran before.
            saved[current] = pmu.snapshot()
            current = 1 - current
            if saved[current] is not None:
                pmu.restore(saved[current])
            outcome = None
        elif op[0] == "handler":
            pmu.on_overflow = (
                None if pmu.on_overflow is not None
                else reprogramming_handler(pmu, op[1], log)
            )
            outcome = None
        else:
            outcome = apply(pmu, op)
        trail.append((op[0], outcome, pmu_state(pmu), list(log)))
    return trail


class TestBindingAgainstScan:
    @pytest.mark.parametrize("seed", range(40))
    def test_random_programs_count_identically(self, seed):
        ops = random_program(seed, steps=300)
        bound, scan = make_pair()
        assert run_program(bound, ops) == run_program(scan, ops)

    def test_programs_cover_every_case(self):
        """The seeds above exercise what the binding must get right."""
        seen_events, seen_privs, kinds = set(), set(), set()
        for seed in range(40):
            for op in random_program(seed, steps=300):
                kinds.add(op[0])
                if op[0] == "program":
                    seen_events.add(op[2].event)
                    seen_privs.add(op[2].priv)
                if op[0] == "configure_fixed":
                    seen_privs.add(op[2])
        assert seen_events == set(Event)
        assert seen_privs == set(PRIVS)
        assert {"program", "enable", "disable", "disable_all",
                "configure_fixed", "switch", "handler", "charge"} <= kinds

    def test_overflow_handler_reprograms_a_later_counter_mid_charge(self):
        """Counter 1 counts under the configuration counter 0's overflow
        handler gave it, within the charge that overflowed counter 0."""
        for pmu in make_pair():
            pmu.program(0, CounterConfig(Event.INSTR_RETIRED, PrivFilter.ALL,
                                         enabled=True,
                                         interrupt_on_overflow=True))
            pmu.program(1, CounterConfig(Event.INSTR_RETIRED, PrivFilter.ALL,
                                         enabled=True))
            pmu.write(0, pmu.counters[0].limit - 5)

            def handler(index, pmu=pmu):
                pmu.write(index, 0)
                pmu.program(1, CounterConfig(Event.CYCLES, PrivFilter.ALL,
                                             enabled=True))

            pmu.on_overflow = handler
            work = WorkVector(instructions=10)
            pmu.charge(work.amounts + (700.0, 70.0), PrivLevel.USER)
            assert pmu.read(0) == 5
            assert pmu.read(1) == 700

    def test_events_without_a_slot_never_count(self):
        bound, scan = make_pair()
        for pmu in (bound, scan):
            pmu.program(0, CounterConfig(Event.BRANCH_MISSES, PrivFilter.ALL,
                                         enabled=True))
            work = WorkVector(instructions=50, branches=10)
            pmu.charge(work.amounts + (100.0, 10.0), PrivLevel.KERNEL)
            assert pmu.read(0) == 0
        assert bound.bound_kernel == ()

    def test_bindings_follow_every_configuration_change(self):
        pmu, _ = make_pair()
        epoch = pmu.config_epoch
        pmu.program(0, CounterConfig(Event.CYCLES, PrivFilter.USR))
        assert pmu.bound_user == () and pmu.config_epoch > epoch
        pmu.enable(0)
        assert pmu.bound_user == ((pmu.counters[0], 6),)
        assert pmu.bound_kernel == ()
        pmu.configure_fixed(2, PrivFilter.OS)
        assert pmu.bound_kernel == ((pmu.fixed[2], 7),)
        state = pmu.snapshot()
        pmu.disable_all()
        assert pmu.bound_user == ()
        pmu.restore(state)
        assert pmu.bound_user == ((pmu.counters[0], 6),)


# -- full machines -------------------------------------------------------------


def make_loop(trips: int) -> Loop:
    body = Chunk(work=WorkVector(instructions=3, branches=1, taken_branches=1,
                                 loads=1), label="body")
    header = Chunk(work=WorkVector(instructions=2), label="header")
    return Loop(body=body, trips=trips, header=header, label="loop")


def boot(seed: int, processor: str = "CD", scan: bool = False,
         engine=None) -> Machine:
    machine = Machine(processor=processor, kernel="perfctr", seed=seed,
                      quantum_ticks=1)
    core = machine.core
    core._ff_engine = engine
    if scan:
        core.pmu = ScanPmu(core.pmu.n_programmable,
                           fixed_events=tuple(f.event for f in core.pmu.fixed),
                           counter_width=core.pmu.counters[0].width)
        core.msr.pmu = core.pmu
    return machine


def machine_state(machine: Machine) -> dict:
    core = machine.core
    ctl = machine.controller
    return {
        "cycle": core.cycle,
        "wall": core.wall_s,
        "tsc": core.pmu._tsc,
        "pmu": pmu_state(core.pmu),
        "ticks": ctl.ticks_delivered,
        "io": ctl.io_delivered,
        "next": (ctl.next_timer_s, ctl.next_io_s),
        "rng": str(machine.rng.bit_generator.state),
    }


class TestMachinesAgainstScan:
    @pytest.mark.parametrize("seed", range(6))
    def test_perfctr_across_context_switches(self, seed):
        """Virtualized counters through a two-thread round robin: every
        quantum suspends and resumes the counters."""
        def run(scan):
            machine = boot(seed, scan=scan)
            machine.scheduler.spawn("other")
            lib = LibPerfctr(machine)
            lib.open()
            lib.control((
                (Event.INSTR_RETIRED, PrivFilter.USR),
                (Event.CYCLES, PrivFilter.ALL),
            ), tsc_on=True)
            state = machine.extension.state_of(machine.main_thread)
            samples = []
            for trips in (5_000, 200_000, 1_000_000):
                machine.core.execute_loop(make_loop(trips), 0x8000)
                samples.append((list(state.sums), list(state.start_values),
                                state.sum_tsc, state.resume_count))
            return machine_state(machine), samples

        assert run(scan=False) == run(scan=True)

    @pytest.mark.parametrize("seed", range(4))
    def test_sampling_profiler_reenters_retire(self, seed):
        def run(scan):
            machine = boot(seed, processor="K8", scan=scan)
            profiler = SamplingProfiler(machine, event=Event.CYCLES,
                                        period=20_000)
            profiler.start()
            machine.core.execute_loop(make_loop(300_000), 0x8000)
            profiler.stop()
            return machine_state(machine), profiler.samples

        assert run(scan=False) == run(scan=True)


class EveryRetirePolling:
    """The interrupt path before the cached deadline: polled after every
    retirement, recomputing the earliest deadline each time."""

    next_deadline_s = -math.inf

    def __init__(self, ctl) -> None:
        self.ctl = ctl

    def _earliest(self) -> float:
        ctl = self.ctl
        candidates = [ctl.next_timer_s]
        if ctl.next_io_s is not None:
            candidates.append(ctl.next_io_s)
        return min(candidates)

    def cycles_until_next(self, core) -> float | None:
        if not self.ctl.enabled:
            return None
        return max(0.0, (self._earliest() - core.wall_s) * core.freq.current_hz)

    def poll(self, core) -> None:
        ctl = self.ctl
        if not ctl.enabled:
            return
        while True:
            deadline = self._earliest()
            if deadline > core.wall_s + 1e-15:
                return
            if deadline == ctl.next_timer_s:
                ctl._deliver_timer(core)
            else:
                ctl._deliver_io(core)


class TestDeadlineWrites:
    @pytest.mark.parametrize("ff", ["off", "on"])
    def test_direct_writes_deliver_as_before(self, ff):
        """Assignments to ``next_io_s``/``next_timer_s`` and ``enabled``
        from outside the controller take effect at the same retirement
        as when every retirement polled; with fast-forward on, its
        compiled replay assigns ``next_timer_s`` too."""
        def run(reference):
            engine = None
            if ff == "on" and not reference:
                engine = fastforward.FastForwardEngine(min_trips=1, warmup=1)
            machine = boot(11, engine=engine)
            core, ctl = machine.core, machine.controller
            core.pmu.program(0, CounterConfig(Event.INSTR_RETIRED,
                                              PrivFilter.ALL, enabled=True))
            if reference:
                core.interrupt_source = EveryRetirePolling(ctl)
            loop = make_loop(400_000)
            chunk = Chunk(work=WorkVector(instructions=500), label="chunk")
            trail = []
            for step in range(12):
                if step % 4 == 1:
                    ctl.next_io_s = core.wall_s + 2e-5
                if step % 4 == 2:
                    ctl.next_timer_s = core.wall_s + 1e-5
                if step == 5:
                    ctl.enabled = False
                if step == 8:
                    ctl.enabled = True
                core.execute_loop(loop, 0x8000)
                for _ in range(50):
                    core.execute_chunk(chunk)
                trail.append(machine_state(machine))
            return trail

        assert run(reference=False) == run(reference=True)
