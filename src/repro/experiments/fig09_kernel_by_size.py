"""Figure 9: kernel-mode instructions by loop size (pc on CD).

The cross-check for Figure 7: counting *kernel-only* instructions
around a benchmark that never enters the kernel, every counted
instruction is error.  Because interrupts are rare, short loops are
usually unperturbed and the distribution at each size is wide — the
paper uses several thousand runs per size and finds ~1500 kernel
instructions at 500k iterations, ~2500 at 1M, a regression slope of
0.00204 kernel instructions per iteration.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.regression import fit_line
from repro.analysis.stats import box_summary
from repro.core.config import Mode
from repro.core.compiler import OptLevel
from repro.exec import LOOP_SIZES, Executor, LoopSweepSpec
from repro.experiments import paper_data
from repro.experiments.base import ExperimentResult
from repro.experiments.common import fmt


def run(
    repeats: int = 60,
    base_seed: int = 0,
    sizes: tuple[int, ...] = LOOP_SIZES,
) -> ExperimentResult:
    """Many kernel-only runs of pc on CD, per loop size."""
    spec = LoopSweepSpec(
        processors=("CD",),
        infras=("pc",),
        mode=Mode.KERNEL,
        sizes=sizes,
        repeats=repeats,
        opt_levels=tuple(OptLevel),
        base_seed=base_seed,
    )
    table = Executor().run(spec.plan())

    lines = [f"{'loop size':>10} {'mean':>9} {'median':>9} {'q3':>9} {'max':>9}"]
    means: dict[int, float] = {}
    for size in sizes:
        values = table.where(size=size).values("error").astype(float)
        box = box_summary(values)
        means[size] = float(np.mean(values))
        lines.append(
            f"{size:>10,} {means[size]:>9.1f} {fmt(box.median):>9} "
            f"{fmt(box.q3):>9} {fmt(box.maximum):>9}"
        )

    fit = fit_line(
        table.values("size").astype(float), table.values("error").astype(float)
    )
    lines.append(
        f"regression slope = {fit.slope:.5f} kernel instr/iteration "
        f"(paper: {paper_data.FIGURE9['slope']})"
    )
    summary = {
        "slope": fit.slope,
        "intercept": fit.intercept,
        "mean_at_500k": means.get(500_000),
        "mean_at_1m": means.get(1_000_000),
    }
    return ExperimentResult(
        experiment_id="figure9",
        title="Kernel mode instructions by loop size (pc on CD)",
        data=table,
        summary=summary,
        paper=dict(paper_data.FIGURE9),
        report_lines=lines,
    )
