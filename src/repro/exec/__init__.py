"""The measurement execution engine: plans, executors, result cache.

Three layers, replacing the hand-rolled loops the experiments used to
carry individually:

* **plan** (:mod:`repro.exec.plan`) — declarative descriptions of what
  to measure: :class:`BenchmarkSpec`, :class:`MeasurementJob`,
  :class:`MeasurementPlan`, and the builders :func:`sweep_plan` /
  :class:`LoopSweepSpec`;
* **executor** (:mod:`repro.exec.executor`) — one :class:`Executor`
  that answers jobs from the cache and runs the rest in order, with
  identical results guaranteed by per-job seeding;
* **cache** (:mod:`repro.exec.cache`) — a content-addressed
  in-memory :class:`ResultCache` keyed on (config, benchmark identity,
  seed, code version), so overlapping sweeps share rows instead of
  recomputing them.

Typical use::

    from repro.core.sweep import SweepSpec
    from repro.exec import Executor

    table = Executor().run(SweepSpec(repeats=2).plan())
"""

from repro.exec.cache import (
    CacheStats,
    ResultCache,
    code_version,
    configure_default_cache,
    default_cache,
    stable_token,
)
from repro.exec.executor import Executor, Job
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
    "Job",
    "LOOP_SIZES",
    "LoopSweepSpec",
    "MeasurementJob",
    "MeasurementPlan",
    "ResultCache",
    "code_version",
    "configure_default_cache",
    "default_cache",
    "stable_token",
    "sweep_plan",
]
