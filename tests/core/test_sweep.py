"""Unit tests for repro.core.sweep."""

import pytest

from repro.core.compiler import OptLevel
from repro.core.config import Mode, Pattern
from repro.core.sweep import SweepSpec, config_seed, iter_configs, run_sweep
from repro.errors import ConfigurationError


def tiny_spec(**kwargs) -> SweepSpec:
    defaults = dict(
        processors=("CD",),
        infras=("pm", "PHpm"),
        patterns=tuple(Pattern),
        modes=(Mode.USER,),
        opt_levels=(OptLevel.O2,),
        n_counters=(1,),
        repeats=2,
        io_interrupts=False,
    )
    defaults.update(kwargs)
    return SweepSpec(**defaults)


class TestConfigSeed:
    def test_stable(self):
        assert config_seed(0, "a", 1) == config_seed(0, "a", 1)

    def test_sensitive_to_factors(self):
        assert config_seed(0, "a", 1) != config_seed(0, "a", 2)
        assert config_seed(0, "a", 1) != config_seed(1, "a", 1)


class TestIterConfigs:
    def test_high_level_read_patterns_skipped(self):
        configs = list(iter_configs(tiny_spec()))
        high = [c for c in configs if c.infra == "PHpm"]
        assert {c.pattern for c in high} == {
            Pattern.START_READ, Pattern.START_STOP,
        }

    def test_counter_budget_respected(self):
        spec = tiny_spec(processors=("CD",), infras=("pm",),
                         n_counters=(1, 2, 3, 4))
        configs = list(iter_configs(spec))
        assert max(c.n_counters for c in configs) == 2  # CD has 2

    def test_tsc_off_only_for_direct_pc(self):
        spec = tiny_spec(infras=("pm", "pc", "PLpc"), tsc=(True, False))
        configs = list(iter_configs(spec))
        off = [c for c in configs if not c.tsc]
        assert off and all(c.infra == "pc" for c in off)

    def test_repeats_distinct_seeds(self):
        configs = list(iter_configs(tiny_spec()))
        seeds = [c.seed for c in configs]
        assert len(seeds) == len(set(seeds))

    def test_invalid_repeats(self):
        with pytest.raises(ConfigurationError, match="repeats"):
            SweepSpec(repeats=0)


class TestRunSweep:
    def test_table_shape(self):
        spec = tiny_spec()
        table = run_sweep(spec)
        assert len(table) == len(list(iter_configs(spec)))
        for column in ("processor", "infra", "pattern", "mode", "error"):
            assert column in table.column_names

    def test_errors_nonnegative_without_io(self):
        table = run_sweep(tiny_spec())
        assert min(table.values("error")) >= 0

    def test_reproducible(self):
        a = run_sweep(tiny_spec())
        b = run_sweep(tiny_spec())
        assert a.column("error") == b.column("error")
