"""The measurement execution engine: plans, executors, result cache.

Three layers, replacing the hand-rolled loops the experiments used to
carry individually:

* **plan** (:mod:`repro.exec.plan`) — declarative descriptions of what
  to measure: :class:`BenchmarkSpec`, :class:`MeasurementJob`,
  :class:`MeasurementPlan`, and the builders :func:`sweep_plan` /
  :class:`LoopSweepSpec`;
* **executor** (:mod:`repro.exec.executor`) — one :class:`Executor`
  over an inline or warm-worker backend, selected by
  :func:`get_executor` (``--jobs`` / ``--backend``), with identical
  results guaranteed by per-job seeding;
* **cache** (:mod:`repro.exec.cache`) — a content-addressed
  in-memory :class:`ResultCache` keyed on (config, benchmark identity,
  seed, code version), so overlapping sweeps share rows instead of
  recomputing them.

Typical use::

    from repro.core.sweep import SweepSpec
    from repro.exec import get_executor

    table = get_executor(jobs=4).run(SweepSpec(repeats=2).plan())
"""

from repro.exec.cache import (
    CacheStats,
    ResultCache,
    code_version,
    configure_default_cache,
    default_cache,
    stable_token,
)
from repro.exec.executor import (
    Executor,
    ExecutorStats,
    Job,
    get_executor,
    resolve_batch_cap,
    resolve_jobs,
    set_default_batch,
    set_default_jobs,
)
from repro.exec.plan import (
    LOOP_SIZES,
    BenchmarkSpec,
    LoopSweepSpec,
    MeasurementJob,
    MeasurementPlan,
    sweep_plan,
)

__all__ = [
    "BenchmarkSpec",
    "CacheStats",
    "Executor",
    "ExecutorStats",
    "Job",
    "LOOP_SIZES",
    "LoopSweepSpec",
    "MeasurementJob",
    "MeasurementPlan",
    "ResultCache",
    "code_version",
    "configure_default_cache",
    "default_cache",
    "get_executor",
    "resolve_batch_cap",
    "resolve_jobs",
    "set_default_batch",
    "set_default_jobs",
    "stable_token",
    "sweep_plan",
]
