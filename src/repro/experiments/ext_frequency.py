"""Extension: the frequency-scaling guideline, quantified (paper §8).

The paper's first guideline — pin the cpufreq governor — came from the
authors' own mistake: unpinned clocks made their cycle measurements
drift.  This experiment measures a memory-touching loop's cycle count
under each governor and reports the run-to-run spread; memory latency
in *core cycles* follows the clock, so the wandering ``ondemand``
governor produces the variability the paper warns about.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.table import ResultTable
from repro.core.benchmarks import StridedLoadBenchmark
from repro.cpu.events import Event, PrivFilter
from repro.cpu.frequency import Governor
from repro.exec import Executor, stable_token
from repro.experiments.base import ExperimentResult
from repro.isa.work import WorkVector
from repro.kernel.system import Machine
from repro.perfctr.libperfctr import LibPerfctr

GOVERNORS = (Governor.PERFORMANCE, Governor.POWERSAVE, Governor.ONDEMAND)
ELEMENTS = 2_000_000
WARMUP_SECONDS = 0.5


@dataclass(frozen=True)
class _GovernorJob:
    """One cycle measurement of the strided loop under a governor."""

    governor: Governor
    run: int
    seed: int

    def execute(self) -> dict:
        machine = Machine(processor="PD", kernel="perfctr", seed=self.seed,
                          governor=self.governor)
        machine.core.retire(
            WorkVector.zero(),
            cycles=WARMUP_SECONDS * machine.core.freq.current_hz,
        )
        lib = LibPerfctr(machine)
        lib.open()
        lib.control(((Event.CYCLES, PrivFilter.ALL),), tsc_on=True)
        StridedLoadBenchmark(ELEMENTS).run(machine, address=0x0804_9000)
        return {
            "governor": self.governor.value,
            "run": self.run,
            "cycles": lib.read().pmcs[0],
        }

    def cache_token(self) -> str:
        return stable_token(
            "governor-cycles", self.governor.value, self.run, self.seed
        )


def run(runs: int = 10, base_seed: int = 0) -> ExperimentResult:
    """Run-to-run cycle spread per governor."""
    jobs = [
        _GovernorJob(governor=governor, run=index,
                     seed=base_seed + 100 + index)
        for governor in GOVERNORS
        for index in range(runs)
    ]
    table = ResultTable.from_rows(Executor().map(jobs))

    lines = [f"{'governor':<13} {'mean cycles':>13} {'spread':>8}"]
    summary: dict = {}
    for governor in GOVERNORS:
        values = table.where(governor=governor.value).values("cycles")
        mean = float(np.mean(values))
        spread = float((values.max() - values.min()) / mean)
        summary[governor.value] = {"mean": mean, "spread": spread}
        lines.append(f"{governor.value:<13} {mean:>13,.0f} {spread:>7.1%}")

    pinned_spread = max(
        summary[Governor.PERFORMANCE.value]["spread"],
        summary[Governor.POWERSAVE.value]["spread"],
    )
    wandering_spread = summary[Governor.ONDEMAND.value]["spread"]
    summary["pinned_spread"] = pinned_spread
    summary["ondemand_spread"] = wandering_spread
    summary["guideline_confirmed"] = wandering_spread > 5 * max(
        pinned_spread, 1e-6
    )
    lines.append(
        "pinned governors are repeatable; ondemand wanders — pin the "
        "governor before measuring (the paper's first guideline)"
    )
    return ExperimentResult(
        experiment_id="ext:frequency-scaling",
        title="Cycle-count variability under cpufreq governors",
        data=table,
        summary=summary,
        paper={"note": "Section 8, guideline 1"},
        report_lines=lines,
    )
