"""Micro-benchmarks with statically known event counts (paper §3.4).

The study needs ground truth without a reference simulator, so it uses
code whose event counts can be determined analytically:

* :class:`NullBenchmark` — zero instructions; every counted event is
  measurement error (Section 4).
* :class:`LoopBenchmark` — the paper's Figure 3 inline-assembly loop,
  ``1 + 3·MAX`` instructions (Section 5); assembled from its actual
  source text by :mod:`repro.isa.assembler`.
* :class:`StridedLoadBenchmark` — an extension in the spirit of Korn
  et al.'s array-walking micro-benchmark: adds predictable memory
  traffic while keeping the instruction count analytical.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING

from repro.errors import ConfigurationError
from repro.isa.assembler import PAPER_LOOP_SOURCE, AssembledLoop, assemble_loop
from repro.isa.block import Chunk, Loop
from repro.isa.work import WorkVector

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.kernel.system import Machine


class Benchmark(abc.ABC):
    """A measurable piece of code with an analytical work model.

    Benchmarks are values: two of the same class built from the same
    constructor arguments (:attr:`params`) are equal and hash alike, so
    they share recorded runs and memoized analytical counts.
    """

    name: str
    #: The constructor arguments the benchmark was built from.
    params: tuple = ()

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and other.params == self.params

    def __hash__(self) -> int:
        return hash((type(self), self.params))

    @abc.abstractmethod
    def expected_work(self) -> WorkVector:
        """Ground truth: the user-mode work one run retires."""

    @abc.abstractmethod
    def run(self, machine: "Machine", address: int) -> None:
        """Execute on ``machine`` with the code placed at ``address``."""

    @property
    @abc.abstractmethod
    def code_size_bytes(self) -> int:
        """Static size of the benchmark code."""

    @property
    def expected_instructions(self) -> int:
        """The paper's ``i_e`` (retired-instruction ground truth)."""
        return self.expected_work().instructions


class NullBenchmark(Benchmark):
    """An empty block of code: zero instructions, zero events."""

    name = "null"

    def expected_work(self) -> WorkVector:
        return WorkVector.zero()

    def run(self, machine: "Machine", address: int) -> None:
        del machine, address  # zero instructions: nothing retires

    @property
    def code_size_bytes(self) -> int:
        return 0


class LoopBenchmark(Benchmark):
    """The paper's Figure 3 loop: ``1 + 3·MAX`` instructions."""

    name = "loop"

    def __init__(self, iterations: int, source: str = PAPER_LOOP_SOURCE) -> None:
        if iterations < 1:
            raise ConfigurationError(
                f"loop benchmark needs >= 1 iteration, got {iterations}"
            )
        self.iterations = iterations
        self.params = (iterations, source)
        self._assembled: AssembledLoop = assemble_loop(source, iterations)
        self._loop: Loop = self._assembled.to_loop()

    def expected_work(self) -> WorkVector:
        return self._assembled.expected_work()

    def run(self, machine: "Machine", address: int) -> None:
        machine.core.execute_loop(self._loop, address)

    def as_loop(self) -> Loop:
        """The benchmark's loop structure (used by slicing harnesses
        such as counter multiplexing)."""
        return self._loop

    @property
    def code_size_bytes(self) -> int:
        return self._loop.size_bytes


class StridedLoadBenchmark(Benchmark):
    """A pointer-walking loop: 4 instructions (one load) per element.

    ``2 + 4·n`` instructions total: two setup instructions, then per
    element a load, an add, a compare, and the back-edge.  Korn et
    al.'s array-walking micro-benchmark with an analytical *cache*
    model on top of the instruction model: walking a cold array at
    ``stride_bytes`` touches a new ``line_bytes`` cache line every
    ``line/stride`` elements, so the expected first-level data-cache
    miss count is ``ceil(n · stride / line)`` (capped at one per
    element for strides at or above the line size).
    """

    name = "strided-load"

    def __init__(
        self,
        elements: int,
        stride_bytes: int = 64,
        line_bytes: int = 64,
    ) -> None:
        if elements < 1:
            raise ConfigurationError(f"need >= 1 element, got {elements}")
        if stride_bytes < 1:
            raise ConfigurationError(
                f"stride must be >= 1 byte, got {stride_bytes}"
            )
        if line_bytes < 1:
            raise ConfigurationError(
                f"line size must be >= 1 byte, got {line_bytes}"
            )
        self.elements = elements
        self.stride_bytes = stride_bytes
        self.line_bytes = line_bytes
        self.params = (elements, stride_bytes, line_bytes)
        header = Chunk(
            WorkVector(instructions=2), label="strided-header", size_bytes=10
        )
        # Group elements into line-sized periods: one miss per period.
        period = max(1, line_bytes // stride_bytes)
        if stride_bytes >= line_bytes:
            period = 1
        full_periods, remainder = divmod(elements, period)
        body_work = WorkVector(
            instructions=4 * period,
            branches=period,
            taken_branches=period,
            loads=period,
            dcache_misses=1,
        )
        # The body chunk covers `period` elements but occupies only the
        # loop's static code (it is not unrolled in memory).
        body = Chunk(body_work, label="strided-body", size_bytes=13)
        self._loop = Loop(
            body=body, trips=full_periods, header=header, label="strided-load"
        )
        # A partial trailing period: its first load still misses.
        tail_work = WorkVector.zero()
        if remainder:
            tail_work = WorkVector(
                instructions=4 * remainder,
                branches=remainder,
                taken_branches=remainder,
                loads=remainder,
                dcache_misses=1,
            )
        self._tail = Chunk(tail_work, label="strided-tail", size_bytes=0)

    def expected_work(self) -> WorkVector:
        return self._loop.total_work() + self._tail.work

    @property
    def expected_dcache_misses(self) -> int:
        """The analytical cache-miss model (Korn et al.'s ground truth)."""
        return self.expected_work().dcache_misses

    def run(self, machine: "Machine", address: int) -> None:
        machine.core.execute_loop(self._loop, address)
        machine.core.execute_chunk(self._tail)

    def as_loop(self) -> Loop:
        """The benchmark's loop structure (used by slicing harnesses).

        Only exact when ``elements`` divides into whole line periods
        (otherwise the tail chunk is not part of the loop).
        """
        if self._tail.work.instructions:
            raise ConfigurationError(
                "as_loop() needs elements to be a multiple of the "
                "line/stride period"
            )
        return self._loop

    @property
    def code_size_bytes(self) -> int:
        return self._loop.size_bytes
