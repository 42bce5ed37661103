"""Unit tests for repro.core.benchmarks."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.benchmarks import (
    LoopBenchmark,
    NullBenchmark,
    StridedLoadBenchmark,
)
from repro.core.microsuite import (
    BranchPatternBenchmark,
    DependencyChainBenchmark,
    SyscallBenchmark,
)
from repro.errors import ConfigurationError
from repro.kernel.system import Machine


class TestNull:
    def test_zero_everything(self):
        bench = NullBenchmark()
        assert bench.expected_instructions == 0
        assert bench.expected_work().is_zero
        assert bench.code_size_bytes == 0

    def test_run_retires_nothing(self):
        machine = Machine(io_interrupts=False)
        before = machine.core.pmu.read_tsc()
        NullBenchmark().run(machine, 0x8048000)
        assert machine.core.pmu.read_tsc() == before


class TestLoop:
    def test_paper_model(self):
        assert LoopBenchmark(1000).expected_instructions == 3001

    @given(n=st.integers(1, 100_000))
    @settings(max_examples=25)
    def test_model_for_any_size(self, n):
        assert LoopBenchmark(n).expected_instructions == 1 + 3 * n

    def test_zero_iterations_rejected(self):
        with pytest.raises(ConfigurationError, match="iteration"):
            LoopBenchmark(0)

    def test_run_retires_exactly_the_model(self):
        from repro.cpu.events import Event, PrivFilter
        from repro.cpu.pmu import CounterConfig

        machine = Machine(processor="K8", kernel="vanilla", io_interrupts=False)
        machine.core.pmu.program(
            0, CounterConfig(Event.INSTR_RETIRED, PrivFilter.USR, True)
        )
        machine.core.skid_probability = 0.0
        bench = LoopBenchmark(54_321)
        bench.run(machine, 0x8048000)
        assert machine.core.pmu.read(0) == bench.expected_instructions

    def test_code_size_constant_in_iterations(self):
        assert (
            LoopBenchmark(10).code_size_bytes
            == LoopBenchmark(10_000_000).code_size_bytes
        )


class TestStrided:
    def test_model(self):
        bench = StridedLoadBenchmark(100)
        assert bench.expected_instructions == 2 + 4 * 100
        assert bench.expected_work().loads == 100

    def test_validation(self):
        with pytest.raises(ConfigurationError, match="element"):
            StridedLoadBenchmark(0)
        with pytest.raises(ConfigurationError, match="stride"):
            StridedLoadBenchmark(10, stride_bytes=0)
        with pytest.raises(ConfigurationError, match="line"):
            StridedLoadBenchmark(10, line_bytes=0)

    def test_cache_model_full_stride(self):
        # stride >= line: every element touches a new line.
        bench = StridedLoadBenchmark(1000, stride_bytes=64, line_bytes=64)
        assert bench.expected_dcache_misses == 1000

    def test_cache_model_partial_stride(self):
        # stride 16 on 64B lines: one miss per four elements.
        bench = StridedLoadBenchmark(1000, stride_bytes=16, line_bytes=64)
        assert bench.expected_dcache_misses == 250

    def test_cache_model_remainder(self):
        # 1002 elements at stride 16: 250 full lines + a partial one.
        bench = StridedLoadBenchmark(1002, stride_bytes=16, line_bytes=64)
        assert bench.expected_dcache_misses == 251
        assert bench.expected_instructions == 2 + 4 * 1002

    def test_cache_model_huge_stride(self):
        bench = StridedLoadBenchmark(100, stride_bytes=4096, line_bytes=64)
        assert bench.expected_dcache_misses == 100

    def test_run_charges_misses_exactly(self):
        from repro.cpu.events import Event, PrivFilter
        from repro.cpu.pmu import CounterConfig

        machine = Machine(processor="K8", kernel="vanilla", io_interrupts=False)
        machine.core.pmu.program(
            0, CounterConfig(Event.DCACHE_MISSES, PrivFilter.USR, True)
        )
        bench = StridedLoadBenchmark(10_003, stride_bytes=16)
        bench.run(machine, 0x8048000)
        assert machine.core.pmu.read(0) == bench.expected_dcache_misses

    def test_as_loop_requires_whole_periods(self):
        with pytest.raises(ConfigurationError, match="multiple"):
            StridedLoadBenchmark(1001, stride_bytes=16).as_loop()
        StridedLoadBenchmark(1000, stride_bytes=16).as_loop()  # fine

    def test_run_matches_model(self):
        from repro.cpu.events import Event, PrivFilter
        from repro.cpu.pmu import CounterConfig

        machine = Machine(processor="CD", kernel="vanilla", io_interrupts=False)
        machine.core.pmu.program(
            0, CounterConfig(Event.LOADS_RETIRED, PrivFilter.USR, True)
        )
        bench = StridedLoadBenchmark(777)
        bench.run(machine, 0x8048000)
        assert machine.core.pmu.read(0) == 777


class TestValueEquality:
    """Benchmarks built alike are equal and hash alike, so they share
    recorded runs and memoized analytical counts."""

    @pytest.mark.parametrize("make", [
        NullBenchmark,
        lambda: LoopBenchmark(1_000),
        lambda: StridedLoadBenchmark(640, stride_bytes=32),
        lambda: DependencyChainBenchmark(500),
        lambda: BranchPatternBenchmark(500),
        lambda: SyscallBenchmark(3),
    ])
    def test_built_alike_is_equal(self, make):
        first, second = make(), make()
        assert first is not second
        assert first == second
        assert hash(first) == hash(second)

    @pytest.mark.parametrize("first, second", [
        (LoopBenchmark(1_000), LoopBenchmark(1_001)),
        (StridedLoadBenchmark(640, stride_bytes=32),
         StridedLoadBenchmark(640, stride_bytes=64)),
        (DependencyChainBenchmark(3), SyscallBenchmark(3)),
        (NullBenchmark(), LoopBenchmark(1)),
    ])
    def test_different_parameters_or_class_differ(self, first, second):
        assert first != second
        assert len({first, second}) == 2
