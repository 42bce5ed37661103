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
* **Interrupt-free replay.**  Without an interrupt, a measurement's
  instruction-domain counts are a fixed cost of its configuration plus
  the benchmark's work (Sections 4–5): after a reset, two seeds differ
  only in the generator and the first interrupt deadlines, and an
  interrupt-free run reads the generator only for a loop's cache
  warm-up, whose cycles reach the clocks, the TSC and the cycle-domain
  counters but no retired-work count.  So a run that delivered no
  interrupt is recorded when it drew nothing, or drew one loop warm-up
  and programmed only work-derived events, together with a horizon
  past which no seed's run of it ends.  A later job that reads the same
  (configuration without seed or optimization level, benchmark,
  placement of its code) and whose seed's first deadline lies past the
  horizon gets the recorded deltas without simulating: its run would
  retire the recorded instruction-domain sequence.  The decision is
  made before the machine is touched.  Traced runs, runs that took an
  interrupt, runs that drew more, and loops that count cycle-domain
  events are never recorded.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.cpu.core import DEADLINE_EPSILON_S
from repro.cpu.events import ARCHITECTURAL_EVENTS, Event, events_from_work
from repro.core.benchmarks import Benchmark
from repro.core.compiler import DEFAULT_GCC, GccModel
from repro.core.config import MeasurementConfig, Mode
from repro.core.patterns import run_pattern
from repro.core.registry import make_interface
from repro.kernel.interrupts import first_deadline_s
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


#: Memo of the analytical counts, keyed by (benchmark, event).
#: Benchmarks are values (equal when built alike), so a sweep has a
#: handful of keys; clear defensively past the bound.
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
        #: Scratch generator for counting another generator's draws,
        #: made on first use so that importing this module does not
        #: load ``numpy.random``.
        self.probe: np.random.PCG64 | None = None


_resident = _Resident()

#: Bound on one thread's resident machines (cleared when reached); a
#: whole ``reproduce all`` uses 14.
_RESIDENT_BOUND = 16


def replayed() -> int:
    """How many of this thread's measurements were answered by a
    recording."""
    return _resident.replayed


def _machine_for(config: MeasurementConfig, image: BootImage) -> Machine:
    """A machine booted from ``image`` in the boot state of ``config``'s
    seed: this thread's resident machine for the image, reset, or a
    newly built one."""
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
    """The outcome of one interrupt-free run that drew at most its loop
    warm-up."""

    #: Past the latest wall clock any seed's run of the recorded job can
    #: reach: the recorded end plus the largest loop warm-up.
    horizon_s: float
    deltas: tuple[int, ...]


#: Recorded runs, keyed by :func:`_replay_key`.  Cleared when full,
#: like the other memos.
_RECORDINGS: dict[tuple, Recording] = {}
_RECORDINGS_BOUND = 8192


def _replay_key(
    config: MeasurementConfig, benchmark: Benchmark, address: int
) -> tuple:
    """What a run reads of its job: the configuration without its seed
    or optimization level, the benchmark, and where its code is placed
    (None for a benchmark without code: nothing of it is placed)."""
    return (
        config.processor, config.infra, config.pattern, config.mode,
        config.n_counters, config.tsc, config.primary_event,
        config.io_interrupts, config.governor,
        benchmark, address if benchmark.code_size_bytes else None,
    )


def _replays(
    config: MeasurementConfig, image: BootImage, recording: Recording
) -> bool:
    """True when the first interrupt deadline of ``config``'s seed lies
    past the recording's horizon, so every deadline test its run would
    make fails and it would retire the recorded instruction-domain
    sequence."""
    return (
        first_deadline_s(config.seed, image.build, config.io_interrupts)
        > recording.horizon_s + DEADLINE_EPSILON_S
    )


def _horizon(machine: Machine) -> float:
    """The recorded run's end plus the largest loop warm-up at the boot
    clock (an interrupt-free run never leaves it): no seed's run of the
    job, whatever its warm-up, ends later."""
    core = machine.core
    return core.wall_s + core.loop_warmup_cycles / core.freq.current_hz


def _draws(rng: np.random.Generator, boot_state: dict) -> int:
    """How many outputs ``rng`` drew since ``boot_state``: 0, 1 (one
    loop warm-up, the only draw an interrupt-free run can make) or 2
    for more."""
    state = rng.bit_generator.state
    if state == boot_state:
        return 0
    probe = _resident.probe
    if probe is None:
        probe = _resident.probe = np.random.PCG64(0)
    probe.state = boot_state
    probe.advance(1)
    return 1 if probe.state == state else 2


def _work_derived(config: MeasurementConfig) -> bool:
    """True when every programmed event counts retired work, which a
    loop's warm-up cycles do not reach."""
    return all(event in ARCHITECTURAL_EVENTS for event in config.events())


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
    # Looked up for every job, as a new machine would look it up, so
    # the snapshot store's accounting sees one lookup per measurement;
    # with the store off, every job gets a new image and so a newly
    # built machine.
    image = boot_image(config.processor, config.substrate)
    address = gcc.benchmark_address(config)
    key = recording = None
    if tracer is None:
        key = _replay_key(config, benchmark, address)
        recording = _RECORDINGS.get(key)
        if recording is not None and _replays(config, image, recording):
            _resident.replayed += 1
            return _result(config, benchmark, address, recording.deltas, 0)
    machine = _machine_for(config, image)
    boot_state = None
    if tracer is not None:
        machine.core.tracer = tracer
    elif recording is None:
        boot_state = machine.rng.bit_generator.state
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
    ):
        draws = _draws(machine.rng, boot_state)
        if draws == 0 or (draws == 1 and _work_derived(config)):
            if len(_RECORDINGS) >= _RECORDINGS_BOUND:
                _RECORDINGS.clear()
            _RECORDINGS[key] = Recording(_horizon(machine), deltas)
    return _result(config, benchmark, address, deltas,
                   controller.ticks_delivered)
