"""The executor layer: the result cache in front of every job.

An :class:`Executor` takes jobs (usually a whole
:class:`~repro.exec.plan.MeasurementPlan`), answers what it can from
the shared :mod:`result cache <repro.exec.cache>`, runs everything
uncached in this process, in order, and returns results in plan order.

Every job carries its complete seed (derived per configuration by
``config_seed``) and each measurement runs on a machine in the boot
state of that seed, so cached and uncached runs produce byte-identical
tables (``tests/exec/test_executor.py``).  Parallel runs split at a
coarser grain: ``repro reproduce all --jobs N`` forks processes that
each render whole artifacts (:mod:`repro.cli`).
"""

from __future__ import annotations

from typing import Any, Iterable, Protocol, runtime_checkable

from repro.analysis.table import ResultTable
from repro.exec.cache import ResultCache, default_cache
from repro.exec.plan import MeasurementPlan

#: Sentinel: "use the process-wide default cache" (pass None to disable).
_DEFAULT = object()


@runtime_checkable
class Job(Protocol):
    """Anything an executor can run: measurement jobs, ablation probes…

    ``execute`` must be a pure function of the job's own state.
    Implement ``cache_token`` to opt into result caching; omit it (or
    return None) to always run.
    """

    def execute(self) -> Any:  # pragma: no cover - protocol
        ...


def _token_of(job: Job) -> str | None:
    token_fn = getattr(job, "cache_token", None)
    return token_fn() if callable(token_fn) else None


class Executor:
    """Cache partition, execution in order, reassembly in plan order."""

    def __init__(self, cache: "ResultCache | None | object" = _DEFAULT) -> None:
        self.cache = default_cache() if cache is _DEFAULT else cache

    def map(self, jobs: Iterable[Job]) -> list[Any]:
        """Results for every job, in order, reusing cached results.

        Every job is looked up before any runs, so a job repeated
        within one call runs each time it appears.
        """
        jobs = list(jobs)
        results: list[Any] = [None] * len(jobs)
        pending: list[tuple[int, str | None]] = []
        for index, job in enumerate(jobs):
            token = _token_of(job) if self.cache is not None else None
            cached = self.cache.get(token) if token is not None else None
            if cached is None:
                pending.append((index, token))
            else:
                results[index] = cached
        for index, token in pending:
            results[index] = jobs[index].execute()
            if token is not None:
                self.cache.put(token, results[index])
        return results

    def run(self, plan: MeasurementPlan) -> ResultTable:
        """Execute a plan and tabulate its rows (in plan order)."""
        return plan.table(self.map(plan.jobs))
