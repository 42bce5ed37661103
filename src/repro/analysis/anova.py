"""N-way fixed-effects analysis of variance.

Section 4.3 of the paper runs an n-way ANOVA with processor,
infrastructure, access pattern, compiler optimization level, and number
of counter registers as factors and the instruction-count error as the
response, finding every factor but the optimization level significant
at Pr(>F) < 2e-16.

This is a main-effects ANOVA computed by sequential (Type I) sums of
squares over a dummy-coded linear model; on the balanced factorial
designs our sweeps produce, Type I and Type III coincide.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class FactorEffect:
    """One factor's (or interaction's) row in the ANOVA table."""

    name: str
    levels: int
    df: int
    sum_squares: float
    mean_square: float
    f_statistic: float
    p_value: float

    def significant(self, alpha: float = 1e-3) -> bool:
        return self.p_value < alpha


@dataclass(frozen=True)
class AnovaResult:
    """The full ANOVA table."""

    effects: tuple[FactorEffect, ...]
    residual_df: int
    residual_ss: float
    total_ss: float

    def effect(self, name: str) -> FactorEffect:
        for item in self.effects:
            if item.name == name:
                return item
        known = ", ".join(e.name for e in self.effects)
        raise ConfigurationError(f"no factor {name!r} (have: {known})")

    def significant_factors(self, alpha: float = 1e-3) -> list[str]:
        return [e.name for e in self.effects if e.significant(alpha)]

    def eta_squared(self, name: str) -> float:
        """Effect size: the fraction of total variance a term explains."""
        if self.total_ss <= 0:
            return 0.0
        return self.effect(name).sum_squares / self.total_ss


def _dummy_columns(levels: Sequence, values: np.ndarray) -> np.ndarray:
    """Treatment-coded dummy columns (first level is the reference)."""
    columns = []
    for level in levels[1:]:
        columns.append((values == level).astype(float))
    if not columns:
        return np.empty((values.size, 0))
    return np.column_stack(columns)


def _rss(design: np.ndarray, response: np.ndarray) -> float:
    """Residual sum of squares of the least-squares fit.

    The coefficients come from the p×p normal equations, not from the
    n×p design: Section 4.3's design has 1,920 rows, and a LAPACK solve
    of that size runs on threaded BLAS for about 200 ms, against a
    millisecond for the Gram system.  ``lstsq`` still handles the
    rank-deficient designs an unbalanced sweep gives (the minimum-norm
    solution has the same fitted values), and the residual is still
    formed against the full design.  A term that explains nothing has a
    sum of squares of pure rounding, whose sign the report prints as the
    sign of a zero F: the closed form ``y·y − b·Xᵀy``, or ``solve`` in
    place of ``lstsq``, turns Section 4.3's ``-0.0`` for ``opt`` into
    ``0.0``.
    """
    gram = design.T @ design
    coef, *_ = np.linalg.lstsq(gram, design.T @ response, rcond=None)
    residuals = response - design @ coef
    return float(residuals @ residuals)


def f_sf(f_stat: float, df: int, residual_df: int) -> float:
    """Pr(F > ``f_stat``) for an F(``df``, ``residual_df``) variable.

    Equal to ``scipy.stats.f.sf`` everywhere, but built on the much
    lighter ``scipy.special``, imported on first use so that loading
    the package (every CLI start) does not pay for scipy.  ``fdtrc`` is
    NaN below the support, where the survival function is 1; a term
    that explains nothing can come out at F = -0.0... from rounding, so
    the statistic is clamped to the support first.  An infinite or NaN
    statistic gives 0.
    """
    if not np.isfinite(f_stat):
        return 0.0
    from scipy.special import fdtrc

    return float(fdtrc(df, residual_df, max(f_stat, 0.0)))


def anova_n_way(
    factors: Mapping[str, Sequence],
    response: Sequence[float],
    interactions: Sequence[tuple[str, str]] = (),
) -> AnovaResult:
    """ANOVA of ``response`` on categorical ``factors``.

    Args:
        factors: factor name → per-observation level labels.
        response: per-observation response values.
        interactions: optional two-way interactions to test after the
            main effects, as pairs of factor names; each appears in the
            table as ``"a:b"`` (the paper's Section 4.1 observes that
            infrastructure and pattern interact with the number of
            counters).

    Returns:
        The ANOVA table with an F test per term.
    """
    y = np.asarray(response, dtype=float)
    n = y.size
    if n < 3:
        raise ConfigurationError(f"need >= 3 observations, got {n}")
    if not factors:
        raise ConfigurationError("need at least one factor")

    arrays: dict[str, np.ndarray] = {}
    level_lists: dict[str, list] = {}
    for name, values in factors.items():
        arr = np.asarray(values)
        if arr.size != n:
            raise ConfigurationError(
                f"factor {name!r} has {arr.size} values for {n} observations"
            )
        arrays[name] = arr
        seen: dict = {}
        for value in arr.tolist():
            seen.setdefault(value, None)
        level_lists[name] = list(seen)
        if len(level_lists[name]) < 1:
            raise ConfigurationError(f"factor {name!r} has no levels")

    for left, right in interactions:
        for name in (left, right):
            if name not in factors:
                raise ConfigurationError(
                    f"interaction references unknown factor {name!r}"
                )

    design = np.ones((n, 1))
    rss_prev = _rss(design, y)
    total_ss = float(np.sum((y - y.mean()) ** 2))

    rows: list[tuple[str, int, int, float]] = []  # name, levels, df, ss
    for name in factors:
        levels = level_lists[name]
        dummies = _dummy_columns(levels, arrays[name])
        design = np.column_stack([design, dummies])
        rss_now = _rss(design, y)
        rows.append((name, len(levels), max(len(levels) - 1, 0), rss_prev - rss_now))
        rss_prev = rss_now

    for left, right in interactions:
        # Product columns of the two factors' dummies (treatment coding).
        left_dummies = _dummy_columns(level_lists[left], arrays[left])
        right_dummies = _dummy_columns(level_lists[right], arrays[right])
        if left_dummies.shape[1] == 0 or right_dummies.shape[1] == 0:
            rows.append((f"{left}:{right}", 1, 0, 0.0))
            continue
        products = np.einsum(
            "ni,nj->nij", left_dummies, right_dummies
        ).reshape(n, -1)
        design = np.column_stack([design, products])
        rss_now = _rss(design, y)
        df = left_dummies.shape[1] * right_dummies.shape[1]
        levels = len(level_lists[left]) * len(level_lists[right])
        rows.append((f"{left}:{right}", levels, df, rss_prev - rss_now))
        rss_prev = rss_now

    residual_ss = rss_prev
    model_df = sum(df for _name, _levels, df, _ss in rows)
    residual_df = n - 1 - model_df
    if residual_df <= 0:
        raise ConfigurationError(
            "no residual degrees of freedom (need replication across cells)"
        )
    mse = residual_ss / residual_df

    effects = []
    for name, levels, df, ss in rows:
        if df == 0:
            effects.append(
                FactorEffect(name, levels, 0, 0.0, 0.0, 0.0, 1.0)
            )
            continue
        ms = ss / df
        f_stat = ms / mse if mse > 0 else np.inf
        p = f_sf(f_stat, df, residual_df)
        effects.append(
            FactorEffect(
                name=name,
                levels=levels,
                df=df,
                sum_squares=float(max(ss, 0.0)),
                mean_square=float(ms),
                f_statistic=float(f_stat),
                p_value=p,
            )
        )

    return AnovaResult(
        effects=tuple(effects),
        residual_df=residual_df,
        residual_ss=float(residual_ss),
        total_ss=total_ss,
    )
