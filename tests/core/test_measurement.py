"""Unit tests for repro.core.measurement."""

import pytest

from repro.core import measurement
from repro.core.benchmarks import LoopBenchmark, NullBenchmark
from repro.core.config import MeasurementConfig, Mode, Pattern
from repro.core.measurement import (
    MeasurementResult,
    expected_count,
    run_measurement,
)
from repro.cpu.events import Event


def cfg(**kwargs) -> MeasurementConfig:
    defaults = dict(processor="CD", infra="pc", pattern=Pattern.START_READ,
                    mode=Mode.USER_KERNEL, seed=1, io_interrupts=False)
    defaults.update(kwargs)
    return MeasurementConfig(**defaults)


class TestExpectedCount:
    def test_instructions_modeled(self):
        bench = LoopBenchmark(100)
        assert expected_count(bench, Event.INSTR_RETIRED, Mode.USER) == 301
        assert expected_count(bench, Event.INSTR_RETIRED, Mode.USER_KERNEL) == 301

    def test_kernel_mode_expects_zero(self):
        bench = LoopBenchmark(100)
        assert expected_count(bench, Event.INSTR_RETIRED, Mode.KERNEL) == 0

    def test_branches_modeled(self):
        bench = LoopBenchmark(100)
        assert expected_count(bench, Event.BRANCHES_RETIRED, Mode.USER) == 100

    def test_cycles_unmodeled(self):
        assert expected_count(LoopBenchmark(10), Event.CYCLES, Mode.USER) is None

    def test_memo_is_keyed_by_benchmark_and_event(self):
        measurement._EXPECTED_MEMO.clear()
        bench = LoopBenchmark(100)
        for mode in (Mode.USER, Mode.USER_KERNEL, Mode.USER):
            assert expected_count(bench, Event.INSTR_RETIRED, mode) == 301
        assert expected_count(bench, Event.BRANCHES_RETIRED, Mode.USER) == 100
        assert list(measurement._EXPECTED_MEMO) == [
            (bench, Event.INSTR_RETIRED), (bench, Event.BRANCHES_RETIRED),
        ]


class TestRunMeasurement:
    def test_null_benchmark_error_positive(self):
        result = run_measurement(cfg(), NullBenchmark())
        assert result.expected == 0
        assert result.error > 0
        assert result.measured == result.error

    def test_deterministic_given_seed(self):
        a = run_measurement(cfg(seed=77), NullBenchmark())
        b = run_measurement(cfg(seed=77), NullBenchmark())
        assert a.deltas == b.deltas

    def test_loop_error_excludes_benchmark_work(self):
        null_error = run_measurement(cfg(), NullBenchmark()).error
        loop_error = run_measurement(cfg(), LoopBenchmark(100_000)).error
        # fixed access cost dominates; the loop adds only duration error
        assert abs(loop_error - null_error) < 5000

    def test_multiple_counters_all_reported(self):
        result = run_measurement(cfg(n_counters=2), NullBenchmark())
        assert len(result.deltas) == 2
        assert result.events[1] is Event.CYCLES
        assert result.delta_of(Event.CYCLES) == result.deltas[1]

    def test_delta_of_unprogrammed_event(self):
        result = run_measurement(cfg(), NullBenchmark())
        with pytest.raises(ValueError, match="not programmed"):
            result.delta_of(Event.BRANCH_MISSES)

    def test_cycles_primary_has_no_error(self):
        result = run_measurement(
            cfg(primary_event=Event.CYCLES), LoopBenchmark(1000)
        )
        assert result.expected is None
        with pytest.raises(ValueError, match="ground truth"):
            _ = result.error
        assert result.measured > 0

    def test_user_mode_error_smaller_than_uk(self):
        uk = run_measurement(cfg(mode=Mode.USER_KERNEL), NullBenchmark()).error
        user = run_measurement(cfg(mode=Mode.USER), NullBenchmark()).error
        assert user < uk

    def test_kernel_only_counts_are_pure_error(self):
        result = run_measurement(cfg(mode=Mode.KERNEL), NullBenchmark())
        assert result.expected == 0
        assert result.error > 0  # the syscall-exit path of start

    def test_address_recorded(self):
        result = run_measurement(cfg(), NullBenchmark())
        assert result.benchmark_address > 0x8048000
