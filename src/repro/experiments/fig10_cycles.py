"""Figure 10: cycle counts by loop size, all processors × pm/pc.

Cycle counts have no analytical ground truth — that is Section 6's
point.  For a fixed loop size, measurements spread across a wide band
(on the Pentium D, 1.5–4 million cycles for the one-million-iteration
loop) because the loop's placement differs between harness binaries and
placement drives branch-prediction/fetch behaviour.
"""

from __future__ import annotations

from repro.analysis.table import ResultTable
from repro.core.config import Mode, Pattern
from repro.core.compiler import OptLevel
from repro.cpu.events import Event
from repro.exec import Executor, LoopSweepSpec, MeasurementPlan
from repro.experiments import paper_data
from repro.experiments.base import ExperimentResult

#: Sizes for the cycle scatter (the paper plots up to one million).
CYCLE_SIZES = (100_000, 250_000, 500_000, 750_000, 1_000_000)


def cycle_plan(
    processors: tuple[str, ...],
    infras: tuple[str, ...],
    sizes: tuple[int, ...],
    repeats: int,
    base_seed: int,
) -> MeasurementPlan:
    """Plan CYCLES measurements for every pattern × opt (the placement
    spread), as one combined plan so the executor sees all jobs at once."""
    return MeasurementPlan.concat(
        [
            LoopSweepSpec(
                processors=processors,
                infras=infras,
                mode=Mode.USER_KERNEL,
                sizes=sizes,
                repeats=repeats,
                pattern=pattern,
                opt_levels=tuple(OptLevel),
                primary_event=Event.CYCLES,
                base_seed=base_seed,
            ).plan()
            for pattern in Pattern
        ]
    )


def gather_cycles(
    processors: tuple[str, ...],
    infras: tuple[str, ...],
    sizes: tuple[int, ...],
    repeats: int,
    base_seed: int,
) -> ResultTable:
    """Measure CYCLES for every pattern × opt (the placement spread)."""
    return Executor().run(
        cycle_plan(processors, infras, sizes, repeats, base_seed)
    )


def run(
    repeats: int = 2,
    base_seed: int = 0,
    sizes: tuple[int, ...] = CYCLE_SIZES,
    processors: tuple[str, ...] = ("PD", "CD", "K8"),
    infras: tuple[str, ...] = ("pm", "pc"),
) -> ExperimentResult:
    """Cycle measurements across the placement-factor grid."""
    table = gather_cycles(processors, infras, sizes, repeats, base_seed)

    summary: dict = {}
    lines = [
        f"{'proc':<5} {'infra':<5} {'cycles@1M min':>14} {'max':>14} "
        f"{'max/min':>8}"
    ]
    top = max(sizes)
    for processor in processors:
        for infra in infras:
            values = (
                table.where(processor=processor, infra=infra, size=top)
                .values("measured")
                .astype(float)
            )
            low, high = float(values.min()), float(values.max())
            summary[(processor, infra)] = {
                "min_at_top": low,
                "max_at_top": high,
                "spread": high / low if low else float("inf"),
            }
            lines.append(
                f"{processor:<5} {infra:<5} {low:>14,.0f} {high:>14,.0f} "
                f"{high / low:>8.2f}"
            )

    pd_any = [
        summary[("PD", infra)] for infra in infras if ("PD", infra) in summary
    ]
    if pd_any:
        spread = max(entry["spread"] for entry in pd_any)
        lines.append(
            f"PD spread at 1M iterations: x{spread:.2f} "
            f"(paper: ~1.5M to ~4M cycles, x2.7)"
        )
        summary["pd_spread"] = spread
    lines.append("no ground truth exists for cycles; spread IS the message")
    return ExperimentResult(
        experiment_id="figure10",
        title="Cycles by loop size",
        data=table,
        summary=summary,
        paper=dict(paper_data.FIGURE10),
        report_lines=lines,
    )
