"""Unit tests for the declarative plan layer (repro.exec.plan)."""

import dataclasses

import pytest

from repro.core.benchmarks import (
    LoopBenchmark,
    NullBenchmark,
    StridedLoadBenchmark,
)
from repro.core.compiler import OptLevel
from repro.core.config import MeasurementConfig, Mode, Pattern
from repro.core.microsuite import (
    BranchPatternBenchmark,
    DependencyChainBenchmark,
)
from repro.core.sweep import SweepSpec, config_seed, iter_configs
from repro.cpu.events import Event
from repro.errors import ConfigurationError
from repro.exec.plan import (
    LOOP_RESULT_FIELDS,
    SWEEP_RESULT_FIELDS,
    BenchmarkSpec,
    LoopSweepSpec,
    MeasurementJob,
    MeasurementPlan,
    sweep_plan,
)


def tiny_spec(**kwargs) -> SweepSpec:
    defaults = dict(
        processors=("CD",),
        infras=("pm", "pc"),
        patterns=(Pattern.START_READ,),
        modes=(Mode.USER,),
        opt_levels=(OptLevel.O2,),
        repeats=2,
        io_interrupts=False,
    )
    defaults.update(kwargs)
    return SweepSpec(**defaults)


class TestBenchmarkSpec:
    def test_builds_the_right_types(self):
        assert isinstance(BenchmarkSpec.null().build(), NullBenchmark)
        assert isinstance(BenchmarkSpec.loop(100).build(), LoopBenchmark)
        assert isinstance(
            BenchmarkSpec.strided(1000).build(), StridedLoadBenchmark
        )
        assert isinstance(
            BenchmarkSpec.chain(10).build(), DependencyChainBenchmark
        )
        assert isinstance(
            BenchmarkSpec.branches(10).build(), BranchPatternBenchmark
        )

    def test_build_args_forwarded(self):
        loop = BenchmarkSpec.loop(25_000).build()
        assert loop.iterations == 25_000
        strided = BenchmarkSpec.strided(4096, stride_bytes=16).build()
        assert strided.stride_bytes == 16

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown benchmark"):
            BenchmarkSpec("bogus")

    def test_identity_is_stable_and_distinct(self):
        assert BenchmarkSpec.loop(100).identity == "loop(100)"
        assert BenchmarkSpec.null().identity == "null()"
        assert (
            BenchmarkSpec.strided(10, 4).identity
            != BenchmarkSpec.strided(10, 8).identity
        )

    def test_build_is_memoized_per_spec(self):
        assert BenchmarkSpec.loop(77_777).build() is BenchmarkSpec.loop(
            77_777
        ).build()


class TestMeasurementJob:
    def make(self, seed=1, benchmark=None, tags=()):
        return MeasurementJob(
            config=MeasurementConfig(
                processor="CD", infra="pm", pattern=Pattern.START_READ,
                mode=Mode.USER, seed=seed, io_interrupts=False,
            ),
            benchmark=benchmark or BenchmarkSpec.null(),
            tags=tags,
        )

    def test_execute_returns_measurement_result(self):
        result = self.make().execute()
        assert result.measured >= result.expected

    def test_token_ignores_tags(self):
        """Identical measurements planned by different figures share a
        cache entry no matter how each figure labels its rows."""
        a = self.make(tags=(("figure", 7),))
        b = self.make(tags=(("figure", 9), ("size", 1)))
        assert a.cache_token() == b.cache_token()

    def test_token_sensitive_to_seed_and_benchmark(self):
        base = self.make()
        assert base.cache_token() != self.make(seed=2).cache_token()
        assert (
            base.cache_token()
            != self.make(benchmark=BenchmarkSpec.loop(10)).cache_token()
        )

    def test_token_is_computed_once(self):
        """The memo is safe because the dataclass really is frozen:
        any mutation that could invalidate the token raises."""
        job = self.make()
        first = job.cache_token()
        assert job.cache_token() is first
        with pytest.raises(dataclasses.FrozenInstanceError):
            job.config = MeasurementConfig(seed=99)
        with pytest.raises(dataclasses.FrozenInstanceError):
            job.benchmark = BenchmarkSpec.loop(10)


class TestMeasurementPlan:
    def test_default_row_is_tags_plus_result_fields(self):
        job = MeasurementJob(
            config=MeasurementConfig(
                processor="CD", infra="pm", pattern=Pattern.START_READ,
                mode=Mode.USER, seed=3, io_interrupts=False,
            ),
            tags=(("size", 1),),
        )
        plan = MeasurementPlan(jobs=(job,))
        table = plan.table([job.execute()])
        assert tuple(table.column_names) == (
            "size", "measured", "expected", "error", "address",
        )

    def test_unknown_result_field_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown result"):
            MeasurementPlan(jobs=(), result_fields=("bogus",))

    def test_plan_is_frozen(self):
        job = MeasurementJob(
            config=MeasurementConfig(
                processor="CD", infra="pm", pattern=Pattern.START_READ,
                mode=Mode.USER, seed=3, io_interrupts=False,
            ),
        )
        plan = MeasurementPlan(jobs=(job,))
        with pytest.raises(dataclasses.FrozenInstanceError):
            plan.jobs = ()

    def test_result_count_mismatch_rejected(self):
        with pytest.raises(ConfigurationError, match="results for"):
            MeasurementPlan(jobs=()).table([object()])

    def test_concat_preserves_order(self):
        plans = [sweep_plan(tiny_spec(base_seed=s)) for s in (0, 1)]
        joined = MeasurementPlan.concat(plans)
        assert len(joined) == sum(len(p) for p in plans)
        assert joined.jobs[: len(plans[0])] == plans[0].jobs

    def test_concat_rejects_mixed_recipes(self):
        a = MeasurementPlan(jobs=(), result_fields=("error",))
        b = MeasurementPlan(jobs=(), result_fields=("measured",))
        with pytest.raises(ConfigurationError, match="row recipes"):
            MeasurementPlan.concat([a, b])


class TestSweepPlan:
    def test_one_job_per_valid_config(self):
        spec = tiny_spec()
        plan = spec.plan()
        configs = list(iter_configs(spec))
        assert len(plan) == len(configs)
        assert [job.config for job in plan] == configs

    def test_schema_matches_run_sweep(self):
        plan = tiny_spec().plan()
        assert plan.result_fields == SWEEP_RESULT_FIELDS
        tags = dict(plan.jobs[0].tags)
        assert set(tags) == {
            "processor", "infra", "pattern", "mode", "opt",
            "n_counters", "tsc", "seed",
        }

    def test_custom_benchmark_applies_to_every_job(self):
        plan = tiny_spec().plan(BenchmarkSpec.loop(100))
        assert {job.benchmark for job in plan} == {BenchmarkSpec.loop(100)}


class TestLoopSweepSpec:
    def test_enumeration_and_seed_derivation(self):
        """Jobs enumerate (processor, infra, opt, size, repeat) with the
        documented seed derivation — the historical loop_error_rows
        order, which all calibrated anchors assume."""
        spec = LoopSweepSpec(
            processors=("CD", "K8"), infras=("pm",), mode=Mode.USER,
            sizes=(1, 100), repeats=2, base_seed=5,
        )
        plan = spec.plan()
        expected = [
            (processor, size, repeat)
            for processor in ("CD", "K8")
            for size in (1, 100)
            for repeat in range(2)
        ]
        got = [
            (dict(j.tags)["processor"], dict(j.tags)["size"],
             dict(j.tags)["repeat"])
            for j in plan
        ]
        assert got == expected
        first = plan.jobs[0]
        assert first.config.seed == config_seed(
            5, "CD", "pm", "user", OptLevel.O2.value, 1, 0,
            Event.INSTR_RETIRED.value,
        )
        assert first.benchmark == BenchmarkSpec.loop(1)

    def test_result_fields(self):
        spec = LoopSweepSpec(
            processors=("CD",), infras=("pm",), mode=Mode.USER,
            sizes=(1,), repeats=1,
        )
        assert spec.plan().result_fields == LOOP_RESULT_FIELDS

    def test_invalid_repeats_rejected(self):
        with pytest.raises(ConfigurationError, match="repeats"):
            LoopSweepSpec(
                processors=("CD",), infras=("pm",), mode=Mode.USER,
                repeats=0,
            )
