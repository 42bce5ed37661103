"""Running one measurement and interpreting its result.

``run_measurement`` boots a fresh machine (as the paper runs a fresh
process per measurement), drives the configured infrastructure through
the configured pattern around the benchmark, and compares the measured
primary-event count against the benchmark's analytical model.  The
difference is the *measurement error* — the paper's central quantity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.cpu.events import Event, events_from_work
from repro.core.benchmarks import Benchmark
from repro.core.compiler import DEFAULT_GCC, GccModel
from repro.core.config import MeasurementConfig, Mode
from repro.core.patterns import run_pattern
from repro.core.registry import make_interface
from repro.kernel.system import Machine

if TYPE_CHECKING:  # pragma: no cover - typing only
    pass


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


def build_machine(config: MeasurementConfig) -> Machine:
    """Boot the machine a configuration describes."""
    return Machine(
        processor=config.processor,
        kernel=config.substrate,
        seed=config.seed,
        governor=config.governor,
        io_interrupts=config.io_interrupts,
    )


def run_measurement(
    config: MeasurementConfig,
    benchmark: Benchmark,
    gcc: GccModel = DEFAULT_GCC,
    tracer: "object | None" = None,
) -> MeasurementResult:
    """Boot, measure, and diff against the analytical model.

    Pass a :class:`repro.trace.Tracer` as ``tracer`` to record every
    retirement (labeled by code path and harness phase) for error
    attribution.
    """
    machine = build_machine(config)
    if tracer is not None:
        machine.core.tracer = tracer
    interface = make_interface(config, machine)
    interface.setup()
    address = gcc.benchmark_address(config)
    c0, c1 = run_pattern(
        config.pattern, interface, lambda: benchmark.run(machine, address)
    )
    deltas = tuple(after - before for before, after in zip(c0, c1))
    return MeasurementResult(
        config=config,
        benchmark_name=benchmark.name,
        events=config.events(),
        deltas=deltas,
        expected=expected_count(benchmark, config.primary_event, config.mode),
        benchmark_address=address,
        ticks=machine.controller.ticks_delivered,
    )
