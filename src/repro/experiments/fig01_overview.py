"""Figure 1: the overall measurement-error distribution.

The paper opens with two violin plots summarizing >170 000 null-
benchmark measurements across every infrastructure and configuration:
user-mode errors reach 2 500+ instructions, user+kernel errors exceed
10 000, and the user-mode inter-quartile range is ~1 500 instructions.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.report import render_violin
from repro.analysis.stats import violin_summary
from repro.core.config import Mode
from repro.core.compiler import OptLevel
from repro.core.sweep import SweepSpec
from repro.exec import Executor
from repro.experiments import paper_data
from repro.experiments.base import ExperimentResult
from repro.experiments.common import fmt


def run(repeats: int = 3, base_seed: int = 0) -> ExperimentResult:
    """Run the full factorial null-benchmark sweep, both modes."""
    spec = SweepSpec(
        processors=("PD", "CD", "K8"),
        modes=(Mode.USER, Mode.USER_KERNEL),
        opt_levels=tuple(OptLevel),
        n_counters=(1, 2, 3, 4),
        tsc=(True, False),
        repeats=repeats,
        base_seed=base_seed,
    )
    table = Executor().run(spec.plan())

    summary: dict = {"n_measurements": len(table)}
    lines = [f"{len(table)} null-benchmark measurements"]
    for mode in (Mode.USER, Mode.USER_KERNEL):
        errors = table.where(mode=mode.value).values("error").astype(float)
        violin = violin_summary(errors)
        box = violin.box
        key = "user" if mode is Mode.USER else "user+kernel"
        summary[key] = {
            "min": box.minimum,
            "median": box.median,
            "iqr": box.iqr,
            "max": box.maximum,
            "p99": float(np.percentile(errors, 99)),
        }
        lines.append(
            f"{key:>12}: min={fmt(box.minimum)} median={fmt(box.median)} "
            f"iqr={fmt(box.iqr)} p99={fmt(float(np.percentile(errors, 99)))} "
            f"max={fmt(box.maximum)}"
        )
        lines.append(render_violin(violin, label=key))

    lines.append(
        "paper: user tail >= "
        f"{paper_data.FIGURE1['user_tail_at_least']}, user+kernel tail >= "
        f"{paper_data.FIGURE1['user_kernel_tail_at_least']}"
    )
    return ExperimentResult(
        experiment_id="figure1",
        title="Measurement error in instructions (overview violins)",
        data=table,
        summary=summary,
        paper=paper_data.FIGURE1,
        report_lines=lines,
    )
