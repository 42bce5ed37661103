"""Running one measurement and interpreting its result.

``run_measurement`` brings a machine to its boot state for the job's
seed (as the paper runs a fresh process per measurement), drives the
configured infrastructure through the configured pattern around the
benchmark, and compares the measured primary-event count against the
benchmark's analytical model.  The difference is the *measurement
error* — the paper's central quantity.

Two things keep the per-measurement cost down without changing a
count:

* **Resident machines.**  Each thread keeps one machine per (boot
  image, governor, I/O interrupts) and resets it for every job
  (:meth:`~repro.kernel.system.Machine.reset`); a reset leaves exactly
  the state a newly built machine has.  The resident machine never
  leaves this module: :func:`build_machine` and every other caller
  still get a machine of their own.
* **Interrupt-free replay.**  Without an interrupt, a measurement is a
  pure function of its configuration: after a reset, two seeds differ
  only in the generator and the first interrupt deadlines, and a run
  that drew nothing and delivered no interrupt read them only through
  deadline tests that all failed.  So such a
  run's outcome is recorded per configuration, and a later job of
  that configuration whose first deadline lies past the recorded
  run's end gets the recorded deltas without simulating: its run would
  retire exactly the recorded sequence.  Loops (their warm-up draws),
  traced runs and runs that took an interrupt are never recorded.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import NamedTuple

from repro.cpu.core import DEADLINE_EPSILON_S
from repro.cpu.events import Event, events_from_work
from repro.core.benchmarks import Benchmark
from repro.core.compiler import DEFAULT_GCC, GccModel
from repro.core.config import MeasurementConfig, Mode
from repro.core.patterns import run_pattern
from repro.core.registry import make_interface
from repro.kernel.snapshot import BootImage, boot_image
from repro.kernel.system import Machine


@dataclass(frozen=True)
class MeasurementResult:
    """Outcome of one measurement.

    Attributes:
        config: the configuration that produced it.
        benchmark_name: which micro-benchmark ran.
        events: events on the n counters (measured event first).
        deltas: per-counter ``c1 − c0``.
        expected: analytical count for the primary event under the
            configured mode, or None when no ground truth exists
            (cycle-domain events — the point of Section 6).
        benchmark_address: where the benchmark code was placed.
        ticks: timer interrupts the machine delivered in total.
    """

    config: MeasurementConfig
    benchmark_name: str
    events: tuple[Event, ...]
    deltas: tuple[int, ...]
    expected: int | None
    benchmark_address: int
    ticks: int

    @property
    def measured(self) -> int:
        """The primary counter's measured count (``c∆``)."""
        return self.deltas[0]

    @property
    def error(self) -> int:
        """Measured minus expected — the paper's measurement error."""
        if self.expected is None:
            raise ValueError(
                f"{self.events[0].value} has no analytical ground truth"
            )
        return self.measured - self.expected

    def delta_of(self, event: Event) -> int:
        """Measured delta of any of the programmed events."""
        for programmed, delta in zip(self.events, self.deltas):
            if programmed is event:
                return delta
        raise ValueError(f"{event.value} was not programmed on a counter")


#: Events with an analytical ground truth derivable from retired work.
_MODELED_EVENTS = frozenset(
    {
        Event.INSTR_RETIRED,
        Event.BRANCHES_RETIRED,
        Event.TAKEN_BRANCHES,
        Event.LOADS_RETIRED,
        Event.STORES_RETIRED,
        Event.DCACHE_MISSES,
    }
)


def expected_count(
    benchmark: Benchmark, event: Event, mode: Mode
) -> int | None:
    """Analytical event count for one benchmark run, or None.

    The benchmarks execute entirely in user mode, so their kernel-mode
    ground truth is zero and their user / user+kernel ground truths
    coincide (paper, Section 5's error model).
    """
    if event not in _MODELED_EVENTS:
        return None
    if mode is Mode.KERNEL:
        return 0
    key = (benchmark, event)
    count = _EXPECTED_MEMO.get(key)
    if count is None:
        count = events_from_work(benchmark.expected_work())[event]
        if len(_EXPECTED_MEMO) >= _EXPECTED_MEMO_BOUND:
            _EXPECTED_MEMO.clear()
        _EXPECTED_MEMO[key] = count
    return count


#: Memo of the analytical counts, keyed by (benchmark, event).  Built
#: benchmarks are shared per spec (``repro.exec.plan``), so a sweep has
#: a handful of keys; clear defensively past the bound.
_EXPECTED_MEMO: dict[tuple[Benchmark, Event], int] = {}
_EXPECTED_MEMO_BOUND = 4096


def build_machine(
    config: MeasurementConfig, image: BootImage | None = None
) -> Machine:
    """Boot the machine a configuration describes (from ``image`` when
    given, else from the default snapshot store)."""
    return Machine(
        processor=config.processor,
        kernel=config.substrate,
        seed=config.seed,
        governor=config.governor,
        io_interrupts=config.io_interrupts,
        image=image,
    )


class _Resident(threading.local):
    """This thread's resident machines, keyed by (id of the boot image,
    governor, I/O interrupts), and how many of its measurements were
    replayed.  Each machine holds its image, so an id in the table
    cannot be reused while its entry lives."""

    def __init__(self) -> None:
        self.machines: dict[tuple, Machine] = {}
        self.replayed = 0


_resident = _Resident()

#: Bound on one thread's resident machines (cleared when reached); a
#: whole ``reproduce all`` uses 14.
_RESIDENT_BOUND = 16


def replayed() -> int:
    """How many of this thread's measurements were answered by a
    recording."""
    return _resident.replayed


def _machine_for(config: MeasurementConfig) -> Machine:
    """A machine in the boot state of ``config``'s seed.

    The boot image is looked up for every job, as a new machine would
    look it up, so the snapshot store's accounting sees one lookup per
    measurement; with the store off, every job gets a new image and so
    a newly built machine.
    """
    image = boot_image(config.processor, config.substrate)
    machines = _resident.machines
    key = (id(image), config.governor, config.io_interrupts)
    machine = machines.get(key)
    if machine is None:
        if len(machines) >= _RESIDENT_BOUND:
            machines.clear()
        machine = machines[key] = build_machine(config, image)
    else:
        machine.reset(config.seed)
    return machine


class Recording(NamedTuple):
    """The outcome of one interrupt-free, draw-free run."""

    #: The core's wall clock when the run ended.
    wall_s: float
    deltas: tuple[int, ...]
    #: The core's cycle count when the run ended.
    cycle: float


#: Recorded runs, keyed by configuration without its seed plus the
#: benchmark object and the compiler model.  Cleared when full, like
#: the other memos.
_RECORDINGS: dict[tuple, Recording] = {}
_RECORDINGS_BOUND = 8192



def _replay_key(
    config: MeasurementConfig, benchmark: Benchmark, gcc: GccModel
) -> tuple:
    return (
        config.processor, config.infra, config.pattern, config.mode,
        config.opt_level, config.n_counters, config.tsc,
        config.primary_event, config.io_interrupts, config.governor,
        benchmark, gcc,
    )


def _replays(machine: Machine, recording: Recording) -> bool:
    """True when no interrupt deadline of the machine's seed falls
    inside the recorded run, so every deadline test it made fails
    again and the run would retire exactly the recorded sequence."""
    return (
        machine.controller.next_deadline_s
        > recording.wall_s + DEADLINE_EPSILON_S
    )


def _drew(machine: Machine, boot_state: dict) -> bool:
    """True when the run drew from the generator since ``boot_state``
    (loop warm-up, skid, governor or I/O draws)."""
    return machine.rng.bit_generator.state != boot_state


def _result(
    config: MeasurementConfig,
    benchmark: Benchmark,
    address: int,
    deltas: tuple[int, ...],
    ticks: int,
) -> MeasurementResult:
    return MeasurementResult(
        config=config,
        benchmark_name=benchmark.name,
        events=config.events(),
        deltas=deltas,
        expected=expected_count(benchmark, config.primary_event, config.mode),
        benchmark_address=address,
        ticks=ticks,
    )


def run_measurement(
    config: MeasurementConfig,
    benchmark: Benchmark,
    gcc: GccModel = DEFAULT_GCC,
    tracer: "object | None" = None,
) -> MeasurementResult:
    """Reset, measure, and diff against the analytical model.

    Pass a :class:`repro.trace.Tracer` as ``tracer`` to record every
    retirement (labeled by code path and harness phase) for error
    attribution; a traced run is always simulated and never recorded.
    """
    machine = _machine_for(config)
    address = gcc.benchmark_address(config)
    key = recording = boot_state = None
    if tracer is None:
        key = _replay_key(config, benchmark, gcc)
        recording = _RECORDINGS.get(key)
        if recording is None:
            boot_state = machine.rng.bit_generator.state
        elif _replays(machine, recording):
            _resident.replayed += 1
            return _result(config, benchmark, address, recording.deltas, 0)
    else:
        machine.core.tracer = tracer
    interface = make_interface(config, machine)
    interface.setup()
    c0, c1 = run_pattern(
        config.pattern, interface, lambda: benchmark.run(machine, address)
    )
    deltas = tuple(after - before for before, after in zip(c0, c1))
    controller = machine.controller
    if (
        boot_state is not None
        and controller.ticks_delivered == 0
        and controller.io_delivered == 0
        and not _drew(machine, boot_state)
    ):
        if len(_RECORDINGS) >= _RECORDINGS_BOUND:
            _RECORDINGS.clear()
        _RECORDINGS[key] = Recording(
            machine.core.wall_s, deltas, machine.core.cycle
        )
    return _result(config, benchmark, address, deltas,
                   controller.ticks_delivered)
