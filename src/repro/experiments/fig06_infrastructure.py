"""Figure 6 + Table 3: the error depends on the infrastructure.

For each of the six interfaces (and each counting mode) the paper picks
the interface's *best* access pattern, measures across all processors
and optimization levels with one counter (TSC enabled for perfctr), and
compares medians.  Two published conclusions must hold:

* layering costs accuracy: direct < PAPI-low < PAPI-high on both
  substrates and in both modes;
* the substrate choice depends on the mode: perfmon wins user-mode
  counting, perfctr wins user+kernel counting.
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

INFRA_ORDER = ("PHpm", "PHpc", "PLpm", "PLpc", "pm", "pc")


def run(repeats: int = 8, base_seed: int = 0) -> ExperimentResult:
    """Find each infrastructure's best pattern and its error stats."""
    spec = SweepSpec(
        processors=("PD", "CD", "K8"),
        infras=INFRA_ORDER,
        patterns=tuple(Pattern),
        modes=(Mode.USER, Mode.USER_KERNEL),
        opt_levels=tuple(OptLevel),
        n_counters=(1,),
        tsc=(True,),
        repeats=repeats,
        base_seed=base_seed,
    )
    table = Executor().run(spec.plan())

    rows: list[dict] = []
    lines = [
        f"{'mode':<12} {'tool':<5} {'best':<5} {'median':>8} {'min':>7}"
        f"   (paper: pattern, median, min)"
    ]
    summary: dict = {}
    for mode in (Mode.USER_KERNEL, Mode.USER):
        mode_key = "user+kernel" if mode is Mode.USER_KERNEL else "user"
        for infra in INFRA_ORDER:
            best_pattern, best_box = None, None
            for pattern in Pattern:
                sub = table.where(
                    mode=mode.value, infra=infra, pattern=pattern.short
                )
                if not len(sub):
                    continue
                box = box_summary(sub.values("error").astype(float))
                if best_box is None or box.median < best_box.median:
                    best_pattern, best_box = pattern.short, box
            assert best_pattern is not None and best_box is not None
            paper_row = paper_data.TABLE3[(mode_key, infra)]
            rows.append(
                {
                    "mode": mode_key,
                    "tool": infra,
                    "best_pattern": best_pattern,
                    "median": best_box.median,
                    "min": best_box.minimum,
                }
            )
            summary[(mode_key, infra)] = {
                "pattern": best_pattern,
                "median": best_box.median,
                "min": best_box.minimum,
            }
            lines.append(
                f"{mode_key:<12} {infra:<5} {best_pattern:<5} "
                f"{fmt(best_box.median):>8} {fmt(best_box.minimum):>7}"
                f"   ({paper_row['pattern']}, {paper_row['median']}, "
                f"{paper_row['min']})"
            )

    # Published ordering checks.
    checks = {
        "layering_monotone": all(
            summary[(mode, f"PH{sub}")]["median"]
            >= summary[(mode, f"PL{sub}")]["median"]
            >= summary[(mode, sub)]["median"]
            for mode in ("user", "user+kernel")
            for sub in ("pm", "pc")
        ),
        "pm_wins_user": summary[("user", "pm")]["median"]
        < summary[("user", "pc")]["median"],
        "pc_wins_user_kernel": summary[("user+kernel", "pc")]["median"]
        < summary[("user+kernel", "pm")]["median"],
    }
    summary["checks"] = checks
    lines.append(f"conclusion checks: {checks}")
    return ExperimentResult(
        experiment_id="figure6+table3",
        title="Error depends on infrastructure (best pattern per tool)",
        data=table,
        summary=summary,
        paper=dict(paper_data.TABLE3),
        report_lines=lines,
        notes=[
            "Our simulation's best u+k perfctr pattern can be read-read "
            "(which never enters the kernel with the TSC on) where the "
            "paper's Table 3 lists start-read; the infrastructure "
            "ordering conclusions are unaffected.",
        ],
    )
