"""Unit tests for repro.core.compiler — the gcc placement model."""

import itertools

from repro.core import compiler
from repro.core.compiler import DEFAULT_GCC, GccModel, OptLevel
from repro.core.config import INFRASTRUCTURES, MeasurementConfig, Pattern


def config(**kwargs) -> MeasurementConfig:
    defaults = dict(processor="K8", infra="pm", io_interrupts=False)
    defaults.update(kwargs)
    return MeasurementConfig(**defaults)


class TestOptLevels:
    def test_four_levels(self):
        assert [o.value for o in OptLevel] == ["-O0", "-O1", "-O2", "-O3"]

    def test_o2_is_the_reference(self):
        assert OptLevel.O2.size_factor == 1.0

    def test_o0_largest(self):
        assert OptLevel.O0.size_factor == max(o.size_factor for o in OptLevel)


class TestHarnessSizes:
    def test_opt_level_changes_size(self):
        sizes = {
            DEFAULT_GCC.harness_bytes_before_benchmark(config(opt_level=opt))
            for opt in OptLevel
        }
        assert len(sizes) == 4

    def test_pattern_changes_size(self):
        sizes = {
            DEFAULT_GCC.harness_bytes_before_benchmark(config(pattern=p))
            for p in Pattern
        }
        assert len(sizes) >= 3

    def test_api_level_changes_size(self):
        direct = DEFAULT_GCC.harness_bytes_before_benchmark(config(infra="pm"))
        high = DEFAULT_GCC.harness_bytes_before_benchmark(config(infra="PHpm"))
        assert high > direct

    def test_counters_change_size(self):
        small = DEFAULT_GCC.harness_bytes_before_benchmark(config(n_counters=1))
        big = DEFAULT_GCC.harness_bytes_before_benchmark(config(n_counters=4))
        assert big > small


class TestAddresses:
    def test_deterministic(self):
        assert DEFAULT_GCC.benchmark_address(config()) == DEFAULT_GCC.benchmark_address(
            config()
        )

    def test_pattern_opt_combinations_spread_addresses(self):
        """The Section 6 mechanism: each (pattern, opt) pair is a
        different binary, hence a different loop address."""
        addresses = {
            DEFAULT_GCC.benchmark_address(config(pattern=p, opt_level=o))
            for p, o in itertools.product(Pattern, OptLevel)
        }
        assert len(addresses) >= 12  # nearly all 16 distinct

    def test_infrastructures_spread_addresses(self):
        addresses = {
            DEFAULT_GCC.benchmark_address(config(infra=infra))
            for infra in INFRASTRUCTURES
        }
        assert len(addresses) == len(INFRASTRUCTURES)

    def test_address_in_text_segment(self):
        model = GccModel()
        address = model.benchmark_address(config())
        assert address > model.text_base

    def test_custom_base(self):
        model = GccModel(text_base=0x40_0000)
        assert model.benchmark_address(config()) > 0x40_0000

    def test_benchmark_is_inline_not_aligned(self):
        """The loop is inline asm: its address is NOT function-aligned
        for most configurations (unlike placed functions)."""
        offsets = {
            DEFAULT_GCC.benchmark_address(config(pattern=p, opt_level=o)) % 16
            for p, o in itertools.product(Pattern, OptLevel)
        }
        assert offsets != {0}


class TestAddressMemo:
    def test_memo_is_keyed_by_layout_factors_not_the_seed(self):
        compiler._ADDRESS_MEMO.clear()
        addresses = {
            DEFAULT_GCC.benchmark_address(config(seed=seed))
            for seed in range(50)
        }
        assert len(addresses) == 1
        assert len(compiler._ADDRESS_MEMO) == 1

    def test_memoized_address_matches_the_layout(self):
        compiler._ADDRESS_MEMO.clear()
        for p, o in itertools.product(Pattern, OptLevel):
            c = config(pattern=p, opt_level=o, n_counters=2)
            fresh = DEFAULT_GCC.layout(c).address_of("harness")
            fresh += DEFAULT_GCC.harness_bytes_before_benchmark(c)
            assert DEFAULT_GCC.benchmark_address(c) == fresh
            assert DEFAULT_GCC.benchmark_address(c) == fresh
        assert len(compiler._ADDRESS_MEMO) == len(Pattern) * len(OptLevel)
