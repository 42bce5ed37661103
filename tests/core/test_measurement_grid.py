"""Every measurement configuration, checked cell by cell.

The Hypothesis properties in ``tests/integration/test_properties.py``
draw 25 random configurations per run.  These tests walk the whole grid
that the study's artifacts draw from, at fixed seeds: 3 processors × 6
infrastructures × every access pattern the infrastructure supports
(PAPI's high-level API has no read-first patterns), 60 cells.  A fault
confined to one cell then fails on every run and names the cell.

Interrupt noise is off and the loop is far shorter than a timer tick,
so every invariant here is exact: no skid tolerance.
"""

import pytest

from repro.core import measurement
from repro.core.benchmarks import LoopBenchmark, NullBenchmark
from repro.core.config import INFRASTRUCTURES, MeasurementConfig, Mode, Pattern
from repro.core.measurement import run_measurement
from repro.trace import Tracer

PROCESSORS = ("PD", "CD", "K8")
SEEDS = (0, 1)
#: Loop trips: the loop retires 1 + 3·LOOP user instructions.
LOOP = 10_000

CELLS = [
    pytest.param(processor, infra, pattern,
                 id=f"{processor}-{infra}-{pattern.value}")
    for processor in PROCESSORS
    for infra in INFRASTRUCTURES
    for pattern in Pattern
    if not (infra.startswith("PH") and pattern.begins_with_read)
]


def test_grid_covers_every_supported_cell():
    assert len(CELLS) == 3 * (4 * 4 + 2 * 2)


def measure(cell, mode, benchmark, seed, tracer=None):
    processor, infra, pattern = cell
    config = MeasurementConfig(
        processor=processor, infra=infra, pattern=pattern, mode=mode,
        seed=seed, io_interrupts=False,
    )
    return run_measurement(config, benchmark, tracer=tracer)


@pytest.mark.parametrize("processor,infra,pattern", CELLS)
class TestEveryCell:
    @pytest.fixture
    def cell(self, processor, infra, pattern):
        return processor, infra, pattern

    def test_modes_decompose(self, cell):
        # Same seed, same execution: the user and the kernel counts of
        # one run add up to its user+kernel count.
        for seed in SEEDS:
            for benchmark in (NullBenchmark(), LoopBenchmark(LOOP)):
                user, kernel, both = (
                    measure(cell, mode, benchmark, seed).measured
                    for mode in (Mode.USER, Mode.KERNEL, Mode.USER_KERNEL)
                )
                assert user + kernel == both

    def test_error_is_never_negative(self, cell):
        # Without interrupts the infrastructure can only add
        # instructions to what it measures, in every mode.
        for seed in SEEDS:
            for mode in Mode:
                result = measure(cell, mode, NullBenchmark(), seed)
                assert result.error >= 0, (mode, seed)

    def test_user_mode_recovers_the_loop_exactly(self, cell):
        # The user-mode error belongs to the infrastructure alone, so
        # subtracting the null benchmark recovers 1 + 3·LOOP exactly.
        for seed in SEEDS:
            null = measure(cell, Mode.USER, NullBenchmark(), seed)
            loop = measure(cell, Mode.USER, LoopBenchmark(LOOP), seed)
            assert (null.ticks, loop.ticks) == (0, 0)
            assert loop.expected == 1 + 3 * LOOP
            assert loop.measured - null.measured == loop.expected
            assert loop.error == null.error

    def test_kernel_count_ignores_the_user_loop(self, cell):
        # With no interrupt landing in it, a user-mode loop adds no
        # kernel instruction.
        for seed in SEEDS:
            null = measure(cell, Mode.KERNEL, NullBenchmark(), seed)
            loop = measure(cell, Mode.KERNEL, LoopBenchmark(LOOP), seed)
            assert (null.ticks, loop.ticks) == (0, 0)
            assert loop.expected == 0
            assert loop.measured == null.measured

    def test_replay_matches_a_traced_simulation(self, cell):
        # A rerun is answered from the recorded run; a traced run is
        # always simulated.  All three must agree to the last count.
        for benchmark in (NullBenchmark(), LoopBenchmark(LOOP)):
            for mode in Mode:
                first = measure(cell, mode, benchmark, SEEDS[0])
                before = measurement.replayed()
                rerun = measure(cell, mode, benchmark, SEEDS[0])
                assert measurement.replayed() == before + 1
                traced = measure(cell, mode, benchmark, SEEDS[0], Tracer())
                for result in (rerun, traced):
                    assert result.deltas == first.deltas
                    assert result.ticks == first.ticks
                    assert result.benchmark_address == first.benchmark_address
