"""The declarative plan layer: what to measure, separated from how.

A :class:`MeasurementJob` pins one measurement — a fully seeded
:class:`~repro.core.config.MeasurementConfig` plus a declarative
:class:`BenchmarkSpec` — and a :class:`MeasurementPlan` is an ordered
collection of jobs plus the recipe for turning their results into
:class:`~repro.analysis.table.ResultTable` rows.

Plans are *data*: they can be enumerated, sliced, concatenated and
their jobs hashed for caching.  Experiments build plans
(via :func:`sweep_plan`, :class:`LoopSweepSpec`, or directly) and hand
them to an :class:`~repro.exec.executor.Executor`; nothing in this
module runs a machine except :meth:`MeasurementJob.execute`, which the
executor calls.

Jobs describe their benchmark declaratively so that the result cache
can address it: a ``BenchmarkSpec`` is (kind, args), not an object
graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterator, Mapping, Sequence

from repro.analysis.table import ResultTable
from repro.core.benchmarks import (
    Benchmark,
    LoopBenchmark,
    NullBenchmark,
    StridedLoadBenchmark,
)
from repro.core.compiler import OptLevel
from repro.core.config import MeasurementConfig, Mode, Pattern
from repro.core.measurement import MeasurementResult, run_measurement
from repro.core.microsuite import (
    BranchPatternBenchmark,
    DependencyChainBenchmark,
    SyscallBenchmark,
)
from repro.core.sweep import SweepSpec, config_seed, iter_configs
from repro.cpu.events import Event
from repro.errors import ConfigurationError
from repro.exec.cache import stable_token

#: Loop sizes the paper's Section 5/6 figures sweep (up to one million).
LOOP_SIZES = (1, 25_000, 50_000, 75_000, 100_000, 250_000, 500_000, 750_000, 1_000_000)


# -- declarative benchmarks ------------------------------------------------

_BENCHMARK_KINDS: dict[str, Callable[..., Benchmark]] = {
    "null": NullBenchmark,
    "loop": LoopBenchmark,
    "strided": StridedLoadBenchmark,
    "chain": DependencyChainBenchmark,
    "branches": BranchPatternBenchmark,
    "syscalls": SyscallBenchmark,
}

#: Per-process memo of built benchmarks (assembly is deterministic, so
#: one instance per spec serves every job in the process).
_BUILD_MEMO: dict["BenchmarkSpec", Benchmark] = {}


@dataclass(frozen=True)
class BenchmarkSpec:
    """A benchmark as data: constructor kind plus positional args.

    Specs are hashable, which is what lets jobs address the result
    cache.
    """

    kind: str = "null"
    args: tuple[Any, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in _BENCHMARK_KINDS:
            known = ", ".join(sorted(_BENCHMARK_KINDS))
            raise ConfigurationError(
                f"unknown benchmark kind {self.kind!r}; known: {known}"
            )

    @classmethod
    def null(cls) -> "BenchmarkSpec":
        return cls("null")

    @classmethod
    def loop(cls, iterations: int) -> "BenchmarkSpec":
        return cls("loop", (iterations,))

    @classmethod
    def strided(
        cls, elements: int, stride_bytes: int = 64, line_bytes: int = 64
    ) -> "BenchmarkSpec":
        return cls("strided", (elements, stride_bytes, line_bytes))

    @classmethod
    def chain(cls, length: int) -> "BenchmarkSpec":
        return cls("chain", (length,))

    @classmethod
    def branches(cls, iterations: int) -> "BenchmarkSpec":
        return cls("branches", (iterations,))

    @property
    def identity(self) -> str:
        """Stable text identity, part of every cache key."""
        return f"{self.kind}({','.join(str(a) for a in self.args)})"

    def build(self) -> Benchmark:
        """Construct (or reuse) the benchmark this spec describes."""
        built = _BUILD_MEMO.get(self)
        if built is None:
            built = _BENCHMARK_KINDS[self.kind](*self.args)
            _BUILD_MEMO[self] = built
        return built


# -- jobs ------------------------------------------------------------------

@dataclass(frozen=True)
class MeasurementJob:
    """One fully determined measurement: config + benchmark + tags.

    ``tags`` are the identity columns of the job's table row (factor
    levels such as ``size`` or ``repeat`` that are not config fields).
    They do not influence execution or caching — two jobs with the
    same config and benchmark are the same measurement no matter which
    experiment planned them, which is what lets figures share rows.
    """

    config: MeasurementConfig
    benchmark: BenchmarkSpec = BenchmarkSpec()
    tags: tuple[tuple[str, Any], ...] = ()

    def execute(self) -> MeasurementResult:
        """Run the measurement (on a machine in its seed's boot state)."""
        return run_measurement(self.config, self.benchmark.build())

    def cache_token(self) -> str:
        """Content address: config factors + benchmark identity.

        Computed once per job: the dataclass is frozen, so the token
        cannot change, and the executor asks for it on every ``map``.
        """
        token = self.__dict__.get("_cache_token")
        if token is None:
            c = self.config
            token = stable_token(
                "measurement",
                c.processor, c.infra, c.pattern.short, c.mode.value,
                c.opt_level.value, c.n_counters, c.tsc,
                c.primary_event.value, c.seed, c.io_interrupts,
                c.governor.value, self.benchmark.identity,
            )
            object.__setattr__(self, "_cache_token", token)
        return token


# -- plans -----------------------------------------------------------------

#: Row columns derivable from a result, by name, in any order a plan asks.
RESULT_FIELDS: dict[str, Callable[[MeasurementResult], Any]] = {
    "benchmark": lambda r: r.benchmark_name,
    "measured": lambda r: r.measured,
    "expected": lambda r: r.expected,
    "error": lambda r: (
        r.measured - r.expected if r.expected is not None else None
    ),
    "ticks": lambda r: r.ticks,
    "address": lambda r: r.benchmark_address,
}

#: A row builder: (job, result) -> row mapping.
RowBuilder = Callable[[MeasurementJob, MeasurementResult], Mapping[str, Any]]


@dataclass(frozen=True)
class MeasurementPlan:
    """An ordered set of jobs plus the recipe for tabulating results.

    By default a row is the job's tags followed by the plan's
    ``result_fields``; pass ``row_builder`` for bespoke schemas.
    Row building always happens in the coordinating process, so
    builders may close over arbitrary state (calibration models, …).
    """

    jobs: tuple[MeasurementJob, ...]
    result_fields: tuple[str, ...] = ("measured", "expected", "error", "address")
    row_builder: RowBuilder | None = None

    def __post_init__(self) -> None:
        unknown = [f for f in self.result_fields if f not in RESULT_FIELDS]
        if unknown:
            known = ", ".join(sorted(RESULT_FIELDS))
            raise ConfigurationError(
                f"unknown result fields {unknown}; known: {known}"
            )

    def __len__(self) -> int:
        return len(self.jobs)

    def __iter__(self) -> Iterator[MeasurementJob]:
        return iter(self.jobs)

    def row(self, job: MeasurementJob, result: MeasurementResult) -> dict[str, Any]:
        """One table row for one completed job."""
        if self.row_builder is not None:
            return dict(self.row_builder(job, result))
        row = dict(job.tags)
        for name in self.result_fields:
            row[name] = RESULT_FIELDS[name](result)
        return row

    def table(self, results: Sequence[MeasurementResult]) -> ResultTable:
        """Tabulate results (in plan order) into a ResultTable."""
        if len(results) != len(self.jobs):
            raise ConfigurationError(
                f"{len(results)} results for {len(self.jobs)} jobs"
            )
        return ResultTable.from_rows(
            self.row(job, result)
            for job, result in zip(self.jobs, results)
        )

    @classmethod
    def concat(cls, plans: Sequence["MeasurementPlan"]) -> "MeasurementPlan":
        """Join plans that share a row recipe into one (ordered) plan."""
        if not plans:
            return cls(jobs=())
        first = plans[0]
        for plan in plans[1:]:
            if (
                plan.result_fields != first.result_fields
                or plan.row_builder is not first.row_builder
            ):
                raise ConfigurationError(
                    "cannot concat plans with different row recipes"
                )
        jobs = tuple(job for plan in plans for job in plan.jobs)
        return cls(
            jobs=jobs,
            result_fields=first.result_fields,
            row_builder=first.row_builder,
        )


# -- plan builders ---------------------------------------------------------

#: Row schema of the factorial null-benchmark sweeps (``run_sweep``).
SWEEP_RESULT_FIELDS = (
    "benchmark", "measured", "expected", "error", "ticks", "address",
)

#: Row schema of the loop-duration sweeps (``loop_error_rows``).
LOOP_RESULT_FIELDS = ("measured", "expected", "error", "address")


def sweep_plan(
    spec: SweepSpec, benchmark: BenchmarkSpec | None = None
) -> MeasurementPlan:
    """Plan a factorial sweep: one job per valid configuration.

    Enumeration (including the skipping of invalid combinations) is
    :func:`repro.core.sweep.iter_configs` — the single source of truth
    for the study's factor space.
    """
    benchmark = benchmark if benchmark is not None else BenchmarkSpec.null()
    jobs = tuple(
        MeasurementJob(
            config=config,
            benchmark=benchmark,
            tags=(
                ("processor", config.processor),
                ("infra", config.infra),
                ("pattern", config.pattern.short),
                ("mode", config.mode.value),
                ("opt", config.opt_level.value),
                ("n_counters", config.n_counters),
                ("tsc", config.tsc),
                ("seed", config.seed),
            ),
        )
        for config in iter_configs(spec)
    )
    return MeasurementPlan(jobs=jobs, result_fields=SWEEP_RESULT_FIELDS)


@dataclass(frozen=True)
class LoopSweepSpec:
    """The loop-duration sweeps behind Figures 7–12: the same loop
    benchmark across iteration counts, with differently seeded machines
    per repeat so interrupt phases vary as they would across real runs.
    """

    processors: tuple[str, ...]
    infras: tuple[str, ...]
    mode: Mode
    sizes: tuple[int, ...] = LOOP_SIZES
    repeats: int = 10
    pattern: Pattern = Pattern.START_READ
    opt_levels: tuple[OptLevel, ...] = (OptLevel.O2,)
    primary_event: Event = Event.INSTR_RETIRED
    base_seed: int = 0

    def __post_init__(self) -> None:
        if self.repeats < 1:
            raise ConfigurationError(
                f"repeats must be >= 1, got {self.repeats}"
            )

    def plan(self) -> MeasurementPlan:
        """One job per (processor, infra, opt, size, repeat)."""
        jobs = []
        for processor in self.processors:
            for infra in self.infras:
                for opt in self.opt_levels:
                    for size in self.sizes:
                        for repeat in range(self.repeats):
                            seed = config_seed(
                                self.base_seed, processor, infra,
                                self.mode.value, opt.value, size, repeat,
                                self.primary_event.value,
                            )
                            config = MeasurementConfig(
                                processor=processor,
                                infra=infra,
                                pattern=self.pattern,
                                mode=self.mode,
                                opt_level=opt,
                                primary_event=self.primary_event,
                                seed=seed,
                            )
                            jobs.append(
                                MeasurementJob(
                                    config=config,
                                    benchmark=BenchmarkSpec.loop(size),
                                    tags=(
                                        ("processor", processor),
                                        ("infra", infra),
                                        ("pattern", self.pattern.short),
                                        ("mode", self.mode.value),
                                        ("opt", opt.value),
                                        ("size", size),
                                        ("repeat", repeat),
                                    ),
                                )
                            )
        return MeasurementPlan(
            jobs=tuple(jobs), result_fields=LOOP_RESULT_FIELDS
        )
