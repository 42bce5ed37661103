"""Unit tests for repro.analysis.anova."""

import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from repro.analysis import anova as anova_mod
from repro.analysis.anova import anova_n_way, f_sf
from repro.errors import ConfigurationError
from repro.experiments import sec43_anova


def balanced_design(rng, effect_a=10.0, effect_b=0.0, n_rep=8):
    """Two factors x two levels each, with configurable main effects."""
    factors = {"a": [], "b": []}
    response = []
    for a_level in ("a0", "a1"):
        for b_level in ("b0", "b1"):
            for _ in range(n_rep):
                factors["a"].append(a_level)
                factors["b"].append(b_level)
                value = rng.normal(0, 1)
                if a_level == "a1":
                    value += effect_a
                if b_level == "b1":
                    value += effect_b
                response.append(value)
    return factors, response


class TestAnova:
    def test_detects_real_effect(self):
        rng = np.random.default_rng(0)
        factors, response = balanced_design(rng, effect_a=10, effect_b=0)
        result = anova_n_way(factors, response)
        assert result.effect("a").p_value < 1e-10
        assert result.effect("b").p_value > 1e-6

    def test_null_effect_not_significant(self):
        rng = np.random.default_rng(1)
        factors, response = balanced_design(rng, effect_a=0, effect_b=0)
        result = anova_n_way(factors, response)
        assert "a" not in result.significant_factors(alpha=1e-3)
        assert "b" not in result.significant_factors(alpha=1e-3)

    def test_degrees_of_freedom(self):
        rng = np.random.default_rng(2)
        factors, response = balanced_design(rng, n_rep=5)
        result = anova_n_way(factors, response)
        assert result.effect("a").df == 1
        assert result.effect("b").df == 1
        assert result.residual_df == 20 - 1 - 2

    def test_sum_of_squares_decomposes(self):
        rng = np.random.default_rng(3)
        factors, response = balanced_design(rng, effect_a=5, effect_b=3)
        result = anova_n_way(factors, response)
        explained = sum(e.sum_squares for e in result.effects)
        assert explained + result.residual_ss == pytest.approx(result.total_ss)

    def test_three_level_factor(self):
        rng = np.random.default_rng(4)
        levels = ["x", "y", "z"]
        factors = {"f": [levels[i % 3] for i in range(60)]}
        response = [
            {"x": 0.0, "y": 5.0, "z": 10.0}[f] + rng.normal(0, 0.5)
            for f in factors["f"]
        ]
        result = anova_n_way(factors, response)
        assert result.effect("f").df == 2
        assert result.effect("f").p_value < 1e-10

    def test_single_level_factor_is_inert(self):
        rng = np.random.default_rng(5)
        factors = {"only": ["same"] * 30, "real": ["a", "b"] * 15}
        response = [
            (10.0 if r == "b" else 0.0) + rng.normal() for r in factors["real"]
        ]
        result = anova_n_way(factors, response)
        assert result.effect("only").df == 0
        assert result.effect("only").p_value == 1.0
        assert result.effect("real").significant()

    def test_unknown_effect_lookup(self):
        rng = np.random.default_rng(6)
        factors, response = balanced_design(rng)
        result = anova_n_way(factors, response)
        with pytest.raises(ConfigurationError, match="no factor"):
            result.effect("ghost")


class TestValidation:
    def test_needs_observations(self):
        with pytest.raises(ConfigurationError, match="observations"):
            anova_n_way({"a": ["x"]}, [1.0])

    def test_needs_factors(self):
        with pytest.raises(ConfigurationError, match="factor"):
            anova_n_way({}, [1.0, 2.0, 3.0])

    def test_length_mismatch(self):
        with pytest.raises(ConfigurationError, match="values for"):
            anova_n_way({"a": ["x", "y"]}, [1.0, 2.0, 3.0])

    def test_needs_replication(self):
        # Saturated model: no residual degrees of freedom.
        with pytest.raises(ConfigurationError, match="residual"):
            anova_n_way({"a": ["x", "y", "z"]}, [1.0, 2.0, 3.0])


class TestInteractions:
    @staticmethod
    def crossed_design(rng, interaction=10.0, n_rep=10):
        """a and b have no main effects; only their combination matters."""
        factors = {"a": [], "b": []}
        response = []
        for a_level in ("a0", "a1"):
            for b_level in ("b0", "b1"):
                for _ in range(n_rep):
                    factors["a"].append(a_level)
                    factors["b"].append(b_level)
                    value = rng.normal(0, 0.5)
                    # XOR-shaped effect: pure interaction.
                    if (a_level == "a1") != (b_level == "b1"):
                        value += interaction
                    response.append(value)
        return factors, response

    def test_pure_interaction_detected(self):
        rng = np.random.default_rng(11)
        factors, response = self.crossed_design(rng)
        result = anova_n_way(factors, response, interactions=[("a", "b")])
        assert result.effect("a:b").significant()
        # The main effects carry (almost) nothing.
        assert result.eta_squared("a:b") > 0.8
        assert result.eta_squared("a") < 0.1

    def test_no_interaction_not_flagged(self):
        rng = np.random.default_rng(12)
        factors = {"a": [], "b": []}
        response = []
        for a_level in ("a0", "a1"):
            for b_level in ("b0", "b1"):
                for _ in range(10):
                    factors["a"].append(a_level)
                    factors["b"].append(b_level)
                    response.append(
                        (5.0 if a_level == "a1" else 0.0) + rng.normal(0, 1)
                    )
        result = anova_n_way(factors, response, interactions=[("a", "b")])
        assert result.effect("a").significant()
        assert not result.effect("a:b").significant(alpha=1e-3)

    def test_unknown_interaction_factor(self):
        rng = np.random.default_rng(13)
        factors, response = self.crossed_design(rng)
        with pytest.raises(ConfigurationError, match="unknown factor"):
            anova_n_way(factors, response, interactions=[("a", "ghost")])

    def test_decomposition_still_holds(self):
        rng = np.random.default_rng(14)
        factors, response = self.crossed_design(rng)
        result = anova_n_way(factors, response, interactions=[("a", "b")])
        explained = sum(e.sum_squares for e in result.effects)
        assert explained + result.residual_ss == pytest.approx(result.total_ss)

    def test_eta_squared_sums_below_one(self):
        rng = np.random.default_rng(15)
        factors, response = self.crossed_design(rng)
        result = anova_n_way(factors, response, interactions=[("a", "b")])
        total = sum(result.eta_squared(e.name) for e in result.effects)
        assert 0 < total <= 1.0


class TestFTest:
    """The lazily imported F test agrees with ``scipy.stats.f.sf``."""

    @pytest.mark.parametrize("f_stat", [-5.0, -1e-12, -0.0, 0.0, 1e-300])
    def test_at_and_below_the_support(self, f_stat):
        assert f_sf(f_stat, 4, 30) == stats.f.sf(f_stat, 4, 30) == 1.0

    def test_matches_scipy_stats_on_random_statistics(self):
        rng = np.random.default_rng(2009)
        for _ in range(2000):
            f_stat = float(rng.choice([-1.0, 1.0]) * rng.exponential(3.0))
            df = int(rng.integers(1, 20))
            residual_df = int(rng.integers(1, 20_000))
            assert f_sf(f_stat, df, residual_df) == float(
                stats.f.sf(f_stat, df, residual_df)
            )

    def test_infinite_statistic_is_certain(self):
        assert f_sf(np.inf, 2, 10) == 0.0

    def test_table_p_values_match_scipy_stats(self):
        rng = np.random.default_rng(5)
        factors, response = balanced_design(rng, effect_a=0.3, effect_b=0.0)
        result = anova_n_way(factors, response, interactions=[("a", "b")])
        for effect in result.effects:
            assert effect.p_value == float(
                stats.f.sf(effect.f_statistic, effect.df, result.residual_df)
            )

    def test_cli_import_loads_no_scipy(self):
        code = (
            "import sys, repro.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))"
        )
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[2] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            check=True, env=env,
        ).stdout
        assert out.strip() == "[]"


def reference_rss(design, response):
    """The full-design least-squares RSS: the reference implementation."""
    coef, *_ = np.linalg.lstsq(design, response, rcond=None)
    residuals = response - design @ coef
    return float(residuals @ residuals)


#: Agreement required of the Gram-system ANOVA, as a fraction of the
#: total sum of squares; fixed before comparing.
SS_TOLERANCE = 1e-9

SEC43_INTERACTIONS = [("infra", "n_counters"), ("pattern", "n_counters")]


def sec43_like_design(seed, drop_cells):
    """A seeded Section 4.3-shaped design with a null ``opt`` factor.

    ``drop_cells`` leaves out the high-level PAPI rr/ro cells, as the
    real sweep must (Table 2), making the design unbalanced.
    """
    rng = np.random.default_rng(seed)
    levels = {
        "processor": ["PD", "CD", "K8"],
        "infra": ["pm", "pc", "PLpm", "PHpm"],
        "pattern": ["ar", "ao", "rr", "ro"],
        "opt": ["-O0", "-O1", "-O2", "-O3"],
        "n_counters": [1, 2],
    }
    effects = {
        name: {level: rng.normal(0, 50) for level in values}
        for name, values in levels.items()
        if name != "opt"
    }
    interaction = {
        (infra, n): rng.normal(0, 20)
        for infra in levels["infra"] for n in levels["n_counters"]
    }
    factors = {name: [] for name in levels}
    response = []
    for combo in itertools.product(*levels.values()):
        row = dict(zip(levels, combo))
        if drop_cells and row["infra"] == "PHpm" and row["pattern"] in ("rr", "ro"):
            continue
        for _ in range(2):
            for name in levels:
                factors[name].append(row[name])
            response.append(
                sum(effects[name][row[name]] for name in effects)
                + interaction[(row["infra"], row["n_counters"])]
                + rng.normal(0, 5)
            )
    return factors, response


class TestGramSolve:
    """The p×p normal-equation solve against the full-design reference."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("drop_cells", [False, True])
    @pytest.mark.parametrize("interactions", [[], SEC43_INTERACTIONS])
    def test_matches_the_full_design_reference(
        self, monkeypatch, seed, drop_cells, interactions
    ):
        factors, response = sec43_like_design(seed, drop_cells)
        result = anova_n_way(factors, response, interactions=interactions)
        monkeypatch.setattr(anova_mod, "_rss", reference_rss)
        reference = anova_n_way(factors, response, interactions=interactions)

        ss_tol = SS_TOLERANCE * reference.total_ss
        mse = reference.residual_ss / reference.residual_df
        assert result.residual_df == reference.residual_df
        assert abs(result.residual_ss - reference.residual_ss) <= ss_tol
        for got, want in zip(result.effects, reference.effects, strict=True):
            assert (got.name, got.df) == (want.name, want.df)
            assert abs(got.sum_squares - want.sum_squares) <= ss_tol
            # The same SS error carried through F = (SS/df) / MSE.
            f_tol = ss_tol / mse + abs(want.f_statistic) * ss_tol / (
                reference.residual_ss
            )
            assert abs(got.f_statistic - want.f_statistic) <= f_tol
        assert result.effect("opt").p_value > 1e-3

    def test_section43_report_lines_match_reference(self, monkeypatch):
        """Every printed digit agrees; only the sign of a zero may not.

        ``opt`` explains nothing, so its F is rounding noise around 0
        and prints as ``0.0`` or ``-0.0``.  Which one is a coin flip
        that the reference solve itself makes differently at
        ``repeats=2`` (``0.0``) and ``repeats=3`` (``-0.0``); at
        ``repeats=1`` the two solves land on opposite sides.  At the
        default ``repeats=4`` both print ``-0.0``, and the section4-3
        golden pins that byte.
        """
        def unsigned_zeros(lines):
            return [line.replace(" -0.0 ", "  0.0 ") for line in lines]

        gram = sec43_anova.run(repeats=1).report_lines
        monkeypatch.setattr(anova_mod, "_rss", reference_rss)
        reference = sec43_anova.run(repeats=1).report_lines
        assert unsigned_zeros(gram) == unsigned_zeros(reference)
        assert len(gram) == len(reference) == 10

    def test_lstsq_never_sees_more_than_p_rows(self, monkeypatch):
        factors, response = sec43_like_design(0, drop_cells=True)
        shapes = []
        lstsq = np.linalg.lstsq

        def recording(a, b, *args, **kwargs):
            shapes.append(np.shape(a))
            return lstsq(a, b, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "lstsq", recording)
        anova_n_way(factors, response, interactions=SEC43_INTERACTIONS)
        # One solve for the intercept, then one per term.
        assert len(shapes) == 1 + len(factors) + len(SEC43_INTERACTIONS)
        for rows, columns in shapes:
            assert rows == columns  # the p×p Gram system
        assert max(rows for rows, _ in shapes) < len(response) // 20
