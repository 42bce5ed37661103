"""Section 4.3: which factors significantly affect accuracy?

The paper runs an n-way ANOVA with processor, infrastructure, access
pattern, optimization level, and number of counter registers as
factors; every factor except the optimization level is significant at
Pr(>F) < 2e-16.  The optimization level cannot matter because the only
optimizable code is the handful of instructions around the measurement
calls — the benchmark itself is inline assembly.
"""

from __future__ import annotations

from repro.analysis.anova import anova_n_way
from repro.core.config import Mode, Pattern
from repro.core.compiler import OptLevel
from repro.core.sweep import SweepSpec
from repro.exec import Executor
from repro.experiments import paper_data
from repro.experiments.base import ExperimentResult


def run(repeats: int = 4, base_seed: int = 0, alpha: float = 1e-6) -> ExperimentResult:
    """Sweep, then ANOVA the user+kernel instruction error."""
    spec = SweepSpec(
        processors=("PD", "CD", "K8"),
        patterns=tuple(Pattern),
        modes=(Mode.USER_KERNEL,),
        opt_levels=tuple(OptLevel),
        n_counters=(1, 2),
        tsc=(True,),
        repeats=repeats,
        base_seed=base_seed,
    )
    table = Executor().run(spec.plan())

    factors = {
        "processor": table.column("processor"),
        "infra": table.column("infra"),
        "pattern": table.column("pattern"),
        "opt": table.column("opt"),
        "n_counters": table.column("n_counters"),
    }
    # Section 4.1 observes that "the infrastructure and the pattern
    # interact with the number of counters": test those terms too.
    anova = anova_n_way(
        factors,
        table.values("error").astype(float),
        interactions=[("infra", "n_counters"), ("pattern", "n_counters")],
    )

    lines = [
        f"{'term':<20} {'df':>4} {'sum sq':>14} {'F':>12} {'Pr(>F)':>10} "
        f"{'eta^2':>7}"
    ]
    for effect in anova.effects:
        lines.append(
            f"{effect.name:<20} {effect.df:>4} {effect.sum_squares:>14.1f} "
            f"{effect.f_statistic:>12.1f} {effect.p_value:>10.2e} "
            f"{anova.eta_squared(effect.name):>7.3f}"
        )
    significant = anova.significant_factors(alpha)
    lines.append(f"significant at alpha={alpha:g}: {significant}")
    lines.append(
        f"paper: significant={list(paper_data.SECTION43['significant'])}, "
        f"not significant={list(paper_data.SECTION43['not_significant'])}"
    )
    return ExperimentResult(
        experiment_id="section4.3",
        title="n-way ANOVA of factors affecting accuracy",
        data=table,
        summary={
            "significant": significant,
            "opt_significant": "opt" in significant,
            "p_values": {e.name: e.p_value for e in anova.effects},
        },
        paper=dict(paper_data.SECTION43),
        report_lines=lines,
    )
