"""Figure 8: user-mode error barely depends on duration.

The same regressions as Figure 7 but over user-mode counts: slopes are
several orders of magnitude smaller (|slope| of a few 1e-6 per
iteration or less) and of either sign — the residue of the counter
start/stop race at interrupt boundaries, not of any handler's work.
"""

from __future__ import annotations

from repro.analysis.regression import fit_line
from repro.core.config import INFRASTRUCTURES, Mode
from repro.exec import LOOP_SIZES, Executor, LoopSweepSpec
from repro.experiments import paper_data
from repro.experiments.base import ExperimentResult


def run(
    repeats: int = 30,
    base_seed: int = 0,
    sizes: tuple[int, ...] = LOOP_SIZES,
    infras: tuple[str, ...] = INFRASTRUCTURES,
    processors: tuple[str, ...] = ("PD", "CD", "K8"),
) -> ExperimentResult:
    """Fit user-mode error-vs-iterations lines per infra × processor."""
    spec = LoopSweepSpec(
        processors=processors,
        infras=infras,
        mode=Mode.USER,
        sizes=sizes,
        repeats=repeats,
        base_seed=base_seed,
    )
    table = Executor().run(spec.plan())

    summary: dict = {}
    lines = [f"{'infra':<5} " + " ".join(f"{p:>13}" for p in processors)]
    for infra in infras:
        row = {}
        for processor in processors:
            sub = table.where(infra=infra, processor=processor)
            fit = fit_line(
                sub.values("size").astype(float),
                sub.values("error").astype(float),
            )
            row[processor] = fit.slope
            summary[(infra, processor)] = fit.slope
        lines.append(
            f"{infra:<5} " + " ".join(f"{row[p]:>13.2e}" for p in processors)
        )

    slope_values = [v for k, v in summary.items() if isinstance(k, tuple)]
    summary["max_abs_slope"] = max(abs(v) for v in slope_values)
    summary["has_both_signs"] = (
        any(v > 0 for v in slope_values) and any(v < 0 for v in slope_values)
    )
    lines.append(
        f"max |slope| = {summary['max_abs_slope']:.2e} "
        f"(paper: a few 1e-6 at most); both signs present: "
        f"{summary['has_both_signs']}"
    )
    return ExperimentResult(
        experiment_id="figure8",
        title="User mode error slopes (instructions/iteration)",
        data=table,
        summary=summary,
        paper=dict(paper_data.FIGURE8),
        report_lines=lines,
    )
