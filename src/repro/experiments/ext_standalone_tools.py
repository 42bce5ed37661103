"""Extension: standalone tools measure whole processes (paper §9).

Korn et al. report >60 000 % error for ``perfex`` because it measures
from before ``execve`` to after exit; the paper's authors found "errors
of similar magnitude" for perfex, pfmon, and papiex.  This experiment
reproduces that comparison: relative error of each standalone tool as
the benchmark shrinks, next to the fine-grained harness on the same
benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.table import ResultTable
from repro.core.benchmarks import LoopBenchmark
from repro.core.config import MeasurementConfig, Mode, Pattern
from repro.core.measurement import run_measurement
from repro.core.sweep import config_seed
from repro.exec import Executor, stable_token
from repro.experiments.base import ExperimentResult
from repro.tools.standalone import make_tool

TOOLS = ("perfex", "pfmon", "papiex")
SIZES = (300, 3_000, 30_000, 300_000, 3_000_000)


@dataclass(frozen=True)
class _ToolJob:
    """One whole-process tool run — a generic (non-measurement) job."""

    tool: str
    size: int
    seed: int

    def execute(self) -> dict:
        tool = make_tool(
            self.tool, processor="CD", seed=self.seed, io_interrupts=False
        )
        report = tool.run(LoopBenchmark(self.size), mode=Mode.USER_KERNEL)
        return {
            "tool": self.tool,
            "iterations": self.size,
            "expected": report.expected,
            "measured": report.measured,
            "relative_error_pct": report.relative_error_percent,
        }

    def cache_token(self) -> str:
        return stable_token("standalone-tool", self.tool, self.size, self.seed)


def run(base_seed: int = 0) -> ExperimentResult:
    """Relative error of whole-process vs fine-grained measurement."""
    jobs = [
        _ToolJob(
            tool=tool_name, size=size,
            seed=config_seed(base_seed, tool_name, size),
        )
        for tool_name in TOOLS
        for size in SIZES
    ]
    table = ResultTable.from_rows(Executor().map(jobs))

    # The fine-grained harness on the smallest benchmark, for contrast.
    fine_config = MeasurementConfig(
        processor="CD", infra="pc", pattern=Pattern.START_READ,
        mode=Mode.USER_KERNEL, seed=config_seed(base_seed, "fine"),
        io_interrupts=False,
    )
    fine = run_measurement(fine_config, LoopBenchmark(SIZES[0]))
    fine_pct = 100.0 * fine.error / fine.expected

    lines = [f"{'tool':<8} {'iterations':>11} {'rel. error':>12}"]
    worst: dict[str, float] = {}
    for row in table.rows():
        lines.append(
            f"{row['tool']:<8} {row['iterations']:>11,} "
            f"{row['relative_error_pct']:>11.0f}%"
        )
        worst[row["tool"]] = max(
            worst.get(row["tool"], 0.0), row["relative_error_pct"]
        )
    lines.append(
        f"{'(harness)':<8} {SIZES[0]:>11,} {fine_pct:>11.0f}%   "
        "<- fine-grained measurement of the same benchmark"
    )
    lines.append(
        "paper/Korn et al.: standalone tools exceed 60000% error on "
        "short benchmarks"
    )
    summary = {
        "worst_relative_error_pct": worst,
        # Korn et al.: "over 60000% error in some cases".
        "some_tool_exceeds_60000pct": any(v > 60_000 for v in worst.values()),
        "all_tools_exceed_10000pct": all(v > 10_000 for v in worst.values()),
        "harness_relative_error_pct": fine_pct,
    }
    return ExperimentResult(
        experiment_id="ext:standalone-tools",
        title="Whole-process measurement error (perfex/pfmon/papiex)",
        data=table,
        summary=summary,
        paper={"korn_et_al_worst_case_pct": 60_000},
        report_lines=lines,
    )
