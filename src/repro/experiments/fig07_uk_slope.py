"""Figure 7: user+kernel error grows with measurement duration.

For every infrastructure × processor, the regression slope of the
user+kernel instruction error over the loop iteration count is
positive: interrupt handlers execute in kernel mode and their
instructions are attributed to the measured thread.  The paper reports
~0.001 extra instructions per iteration for perfmon on K8 and notes the
slope does not depend on the API layer (PAPI or direct) — only on the
kernel build underneath.
"""

from __future__ import annotations

from repro.analysis.regression import fit_line
from repro.analysis.table import ResultTable
from repro.core.config import INFRASTRUCTURES, Mode
from repro.exec import LOOP_SIZES, Executor, LoopSweepSpec
from repro.experiments import paper_data
from repro.experiments.base import ExperimentResult


def run(
    repeats: int = 10,
    base_seed: int = 0,
    sizes: tuple[int, ...] = LOOP_SIZES,
    infras: tuple[str, ...] = INFRASTRUCTURES,
    processors: tuple[str, ...] = ("PD", "CD", "K8"),
) -> ExperimentResult:
    """Fit error-vs-iterations lines for each infra × processor."""
    spec = LoopSweepSpec(
        processors=processors,
        infras=infras,
        mode=Mode.USER_KERNEL,
        sizes=sizes,
        repeats=repeats,
        base_seed=base_seed,
    )
    table = Executor().run(spec.plan())

    slopes = ResultTable()
    lines = [f"{'infra':<5} " + " ".join(f"{p:>12}" for p in processors)]
    summary: dict = {}
    for infra in infras:
        row_slopes = {}
        for processor in processors:
            sub = table.where(infra=infra, processor=processor)
            fit = fit_line(
                sub.values("size").astype(float),
                sub.values("error").astype(float),
            )
            row_slopes[processor] = fit.slope
            slopes.append(
                {"infra": infra, "processor": processor, "slope": fit.slope,
                 "intercept": fit.intercept}
            )
            summary[(infra, processor)] = fit.slope
        lines.append(
            f"{infra:<5} "
            + " ".join(f"{row_slopes[p]:>12.6f}" for p in processors)
        )

    lines.append(
        f"paper anchors: pc/CD = {paper_data.FIGURE7[('pc', 'CD')]}, "
        f"pm/K8 = {paper_data.FIGURE7[('pm', 'K8')]}"
    )
    summary["all_positive"] = all(
        value > 0 for key, value in summary.items() if isinstance(key, tuple)
    )
    return ExperimentResult(
        experiment_id="figure7",
        title="User+kernel mode error slopes (instructions/iteration)",
        data=table,
        summary=summary,
        paper=dict(paper_data.FIGURE7),
        report_lines=lines,
    )
