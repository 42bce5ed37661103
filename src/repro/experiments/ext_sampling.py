"""Extension: how sampling perturbs a concurrent count (Moore, ICCS'02).

Run the loop benchmark with an instruction counter in counting mode
while a sampling profiler fires on a second counter at varying periods.
Every sample's PMU-interrupt handler retires kernel instructions inside
the measured window, so the user+kernel count inflates linearly with
the number of samples — the counting-vs-sampling cost trade-off made
concrete.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.table import ResultTable
from repro.core.benchmarks import LoopBenchmark
from repro.cpu.events import Event, PrivFilter
from repro.exec import Executor, stable_token
from repro.experiments.base import ExperimentResult
from repro.kernel.system import Machine
from repro.perfctr.libperfctr import LibPerfctr
from repro.sampling.profiler import SamplingProfiler

PERIODS = (0, 1_000_000, 250_000, 50_000)  # 0 = no sampling
ITERATIONS = 1_000_000


@dataclass(frozen=True)
class _SamplingJob:
    """One counting-mode measurement with a concurrent sampler."""

    period: int
    seed: int

    def execute(self) -> dict:
        machine = Machine(processor="K8", kernel="perfctr", seed=self.seed,
                          io_interrupts=False)
        lib = LibPerfctr(machine)
        lib.open()
        lib.control(((Event.INSTR_RETIRED, PrivFilter.ALL),), tsc_on=True)

        profiler = None
        if self.period:
            profiler = SamplingProfiler(
                machine, event=Event.CYCLES, period=self.period,
                counter_index=3,
            )
            profiler.start()

        benchmark = LoopBenchmark(ITERATIONS)
        before = lib.read().pmcs[0]
        benchmark.run(machine, address=0x0804_9000)
        after = lib.read().pmcs[0]
        if profiler is not None:
            profiler.stop()

        # Error relative to a fixed baseline: what the window would have
        # contained without sampling is benchmark + read-access cost; we
        # report measured - expected as usual.
        return {
            "error": (after - before) - benchmark.expected_instructions,
            "samples": profiler.n_samples if profiler else 0,
        }

    def cache_token(self) -> str:
        return stable_token("sampling-perturbation", self.period, self.seed)


def run(base_seed: int = 0) -> ExperimentResult:
    """Instruction-count error vs sampling period."""
    jobs = [_SamplingJob(period=period, seed=base_seed + 3)
            for period in PERIODS]
    results = Executor().map(jobs)

    table = ResultTable()
    lines = [
        f"{'period':>10} {'samples':>8} {'u+k error':>10} "
        f"{'error/sample':>13}"
    ]
    summary: dict = {}
    baseline_error = None
    for period, result in zip(PERIODS, results):
        error, samples = result["error"], result["samples"]
        if period == 0:
            baseline_error = error
        per_sample = (
            (error - baseline_error) / samples if samples else 0.0
        )
        table.append(
            {
                "period": period,
                "samples": samples,
                "error": error,
                "error_per_sample": per_sample,
            }
        )
        summary[period] = {"error": error, "samples": samples,
                           "error_per_sample": per_sample}
        lines.append(
            f"{period:>10,} {samples:>8} {error:>10,} {per_sample:>13.1f}"
        )

    handler = SamplingProfiler.HANDLER_INSTRUCTIONS
    lines.append(
        f"each sample injects ~{handler} kernel instructions "
        "(the PMU-interrupt handler) into the measured window"
    )
    summary["handler_instructions"] = handler
    return ExperimentResult(
        experiment_id="ext:sampling",
        title="Sampling perturbs concurrent counting",
        data=table,
        summary=summary,
        paper={"note": "Moore (ICCS'02): counting vs sampling usage models"},
        report_lines=lines,
    )
