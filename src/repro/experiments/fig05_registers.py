"""Figure 5: the error depends on the number of measured registers.

perfmon and perfctr on the K8, one to four programmable counters.  The
paper's findings, all of which emerge from the handlers' loop
structure:

* perfmon, user+kernel, read-based patterns: ~+100 instructions per
  additional register (573 → 909 for read-read);
* perfmon, user mode: flat (the kernel read loop is invisible);
* perfctr: a marginal increase, strongest for read-read
  (84 → 125, i.e. ~+13 per register of user-mode RDPMC loop);
* start-stop: essentially flat everywhere.
"""

from __future__ import annotations

from repro.analysis.stats import box_summary
from repro.analysis.regression import fit_line
from repro.core.config import Mode, Pattern
from repro.core.compiler import OptLevel
from repro.core.sweep import SweepSpec
from repro.exec import Executor
from repro.experiments import paper_data
from repro.experiments.base import ExperimentResult
from repro.experiments.common import fmt


def run(repeats: int = 8, base_seed: int = 0) -> ExperimentResult:
    """Sweep pm and pc on K8 across 1-4 counters."""
    spec = SweepSpec(
        processors=("K8",),
        infras=("pm", "pc"),
        patterns=tuple(Pattern),
        modes=(Mode.USER, Mode.USER_KERNEL),
        opt_levels=tuple(OptLevel),
        n_counters=(1, 2, 3, 4),
        repeats=repeats,
        base_seed=base_seed,
    )
    table = Executor().run(spec.plan())

    summary: dict = {}
    lines = [
        f"{'infra':<5} {'mode':<12} {'pattern':<4} "
        + " ".join(f"{f'median@{n}':>10}" for n in (1, 2, 3, 4))
        + f" {'slope/reg':>10}"
    ]
    for infra in ("pm", "pc"):
        for mode in (Mode.USER_KERNEL, Mode.USER):
            for pattern in Pattern:
                medians = []
                for n in (1, 2, 3, 4):
                    sub = table.where(
                        infra=infra, mode=mode.value,
                        pattern=pattern.short, n_counters=n,
                    )
                    medians.append(
                        box_summary(sub.values("error").astype(float)).median
                    )
                slope = fit_line([1, 2, 3, 4], medians).slope
                summary[(infra, mode.value, pattern.short)] = {
                    "medians": tuple(medians),
                    "slope_per_register": slope,
                }
                lines.append(
                    f"{infra:<5} {mode.value:<12} {pattern.short:<4} "
                    + " ".join(f"{fmt(m):>10}" for m in medians)
                    + f" {fmt(slope, 2):>10}"
                )

    lines.append(
        "paper: pm u+k rr 573@1 -> 909@4; pc rr 84@1 -> 125@4; "
        "pm user-mode flat"
    )
    return ExperimentResult(
        experiment_id="figure5",
        title="Error depends on number of counters (K8)",
        data=table,
        summary=summary,
        paper=paper_data.FIGURE5,
        report_lines=lines,
    )
