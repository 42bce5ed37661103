"""Figure 4: using the TSC *reduces* perfctr's error.

perfctr on the Core 2 Duo, all four patterns, TSC off vs on.  The
counter-intuitive result: disabling the TSC (seemingly less work)
forces the library off its fast user-mode read path onto the
syscall-based fallback, inflating every pattern that includes a read.
The paper quotes the read-read median dropping from 1698 to 109.5
instructions when the TSC is enabled.
"""

from __future__ import annotations

from repro.analysis.stats import box_summary
from repro.core.config import Mode, Pattern
from repro.core.compiler import OptLevel
from repro.core.sweep import SweepSpec
from repro.exec import Executor
from repro.experiments import paper_data
from repro.experiments.base import ExperimentResult
from repro.experiments.common import fmt


def run(repeats: int = 10, base_seed: int = 0) -> ExperimentResult:
    """Sweep pc on CD over TSC x pattern x mode x opt x counters."""
    spec = SweepSpec(
        processors=("CD",),
        infras=("pc",),
        patterns=tuple(Pattern),
        modes=(Mode.USER, Mode.USER_KERNEL),
        opt_levels=tuple(OptLevel),
        n_counters=(1, 2),
        tsc=(False, True),
        repeats=repeats,
        base_seed=base_seed,
    )
    table = Executor().run(spec.plan())

    summary: dict = {}
    lines = [f"{'mode':<12} {'pattern':<4} {'tsc':<4} {'median':>8} {'q3':>8}"]
    for mode in (Mode.USER_KERNEL, Mode.USER):
        for pattern in Pattern:
            for tsc in (False, True):
                sub = table.where(
                    mode=mode.value, pattern=pattern.short, tsc=tsc
                )
                box = box_summary(sub.values("error").astype(float))
                summary[(mode.value, pattern.short, tsc)] = box.median
                lines.append(
                    f"{mode.value:<12} {pattern.short:<4} "
                    f"{'on' if tsc else 'off':<4} {fmt(box.median):>8} "
                    f"{fmt(box.q3):>8}"
                )

    rr_off = summary[("user", "rr", False)]
    rr_on = summary[("user", "rr", True)]
    lines.append(
        f"read-read user median: {fmt(rr_off)} (TSC off) -> {fmt(rr_on)} "
        f"(TSC on); paper: {paper_data.FIGURE4['rr_median_tsc_off']} -> "
        f"{paper_data.FIGURE4['rr_median_tsc_on']}"
    )
    summary["rr_user_median_tsc_off"] = rr_off
    summary["rr_user_median_tsc_on"] = rr_on
    return ExperimentResult(
        experiment_id="figure4",
        title="Using TSC reduces error on perfctr (CD)",
        data=table,
        summary=summary,
        paper=paper_data.FIGURE4,
        report_lines=lines,
    )
