"""The executor layer: one facade over the pluggable execution backends.

An :class:`Executor` takes jobs (usually a whole
:class:`~repro.exec.plan.MeasurementPlan`), consults the shared
:mod:`result cache <repro.exec.cache>`, hands everything uncached to an
:class:`~repro.backend.base.ExecutionBackend`, and returns results in
plan order.  The executor owns *what* runs (cache partition, plan
order, stats); the backend owns *where* (in this process, or on the
persistent warm-worker fleet).

:func:`get_executor` resolves which backend the current settings call
for — ``--backend`` / ``REPRO_BACKEND``, defaulting to the persistent
``warm`` fleet when ``--jobs > 1`` — and every choice is
**deterministic and interchangeable**: every job carries its complete
seed (derived per configuration by ``config_seed``), each measurement
runs on a machine in the boot state of that seed, and results are
reassembled in plan order — so inline, warm, cached, and uncached runs
produce byte-identical tables.  ``tests/exec/test_executor.py`` and the golden matrix in
``tests/integration/test_golden_outputs.py`` prove this.

Worker-count and batch-cap knobs live in :mod:`repro.backend.knobs`
and are re-exported here under their long-standing names; the
resolution chains are unchanged (explicit argument > CLI default >
environment variable > fallback).  A configured ``--batch-size`` is
the adaptive batch sizer's cap — see
:class:`repro.backend.base.AdaptiveBatchSizer`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Protocol, Sequence, runtime_checkable

from repro.analysis.table import ResultTable
from repro.backend.base import ExecutionBackend
from repro.backend.inline import InlineBackend
from repro.backend.knobs import (  # noqa: F401  (re-exported API)
    resolve_backend_name,
    resolve_batch_cap,
    resolve_jobs,
    set_default_batch,
    set_default_jobs,
)
from repro.backend.registry import get_backend
from repro.errors import ConfigurationError
from repro.exec.cache import ResultCache, default_cache
from repro.exec.plan import MeasurementPlan

#: Sentinel: "use the process-wide default cache" (pass None to disable).
_DEFAULT = object()


@runtime_checkable
class Job(Protocol):
    """Anything an executor can run: measurement jobs, ablation probes…

    ``execute`` must be a pure function of the job's own (picklable)
    state, and the result must be picklable.  Implement ``cache_token``
    to opt into result caching; omit it (or return None) to always run.
    """

    def execute(self) -> Any:  # pragma: no cover - protocol
        ...


def _token_of(job: Job) -> str | None:
    token_fn = getattr(job, "cache_token", None)
    return token_fn() if callable(token_fn) else None


@dataclass
class ExecutorStats:
    """Per-executor accounting: how much work the cache absorbed.

    ``jobs`` counts everything mapped through this executor,
    ``cache_hits`` the jobs answered from the result cache, and
    ``executed`` the jobs that actually ran.

    ``batches`` counts dispatch units (backend batches) and
    ``snapshot_hits`` the machine boots answered by a snapshot store
    while executing — including hits inside worker processes, which
    every batch ships home.
    """

    jobs: int = 0
    cache_hits: int = 0
    executed: int = 0
    batches: int = 0
    snapshot_hits: int = 0


class Executor:
    """Cache partition, execution on a backend, reassembly in plan order.

    ``backend`` defaults to a fresh in-process ``inline`` backend.  Pass
    a shared backend (:func:`repro.backend.get_backend`) to reuse a warm
    fleet across runs, or a fresh instance to own its lifecycle.
    ``batch_size`` caps the adaptive batch sizer.
    """

    def __init__(
        self,
        backend: ExecutionBackend | None = None,
        cache: "ResultCache | None | object" = _DEFAULT,
        batch_size: int | None = None,
    ) -> None:
        if batch_size is not None and batch_size < 1:
            raise ConfigurationError(
                f"batch size must be >= 1, got {batch_size}"
            )
        self.backend = backend if backend is not None else InlineBackend()
        self.cache = default_cache() if cache is _DEFAULT else cache
        self.batch_size = batch_size
        self.stats = ExecutorStats()

    def map(self, jobs: Iterable[Job]) -> list[Any]:
        """Results for every job, in order, reusing cached results."""
        jobs = list(jobs)
        self.stats.jobs += len(jobs)
        results: list[Any] = [None] * len(jobs)
        pending: list[int] = []
        tokens: list[str | None] = [None] * len(jobs)
        for index, job in enumerate(jobs):
            token = _token_of(job) if self.cache is not None else None
            tokens[index] = token
            cached = (
                self.cache.get(token)
                if self.cache is not None and token is not None
                else None
            )
            if cached is not None:
                results[index] = cached
                self.stats.cache_hits += 1
            else:
                pending.append(index)
        self.stats.executed += len(pending)
        if pending:
            fresh = self._execute([jobs[i] for i in pending])
            for index, result in zip(pending, fresh):
                results[index] = result
                if self.cache is not None and tokens[index] is not None:
                    self.cache.put(tokens[index], result)
        return results

    def _execute(self, jobs: Sequence[Job]) -> list[Any]:
        """Run jobs on the backend, returning results in the given order."""
        outcome = self.backend.execute(jobs, batch_cap=self.batch_size)
        self.stats.batches += outcome.batches
        self.stats.snapshot_hits += outcome.snapshot_hits
        return outcome.results

    def run(self, plan: MeasurementPlan) -> ResultTable:
        """Execute a plan and tabulate its rows (in plan order)."""
        return plan.table(self.map(plan.jobs))


def get_executor(
    jobs: int | None = None,
    cache: "ResultCache | None | object" = _DEFAULT,
    batch_size: int | None = None,
    backend: str | None = None,
) -> Executor:
    """The executor the current settings call for.

    The backend resolves as explicit argument > ``set_default_backend``
    (the CLI's ``--backend``) > ``REPRO_BACKEND`` > by worker count:
    ``jobs == 1`` (the default) runs inline; anything higher lands on
    the persistent warm-worker fleet (shared process-wide, so repeated
    runs reuse the same workers), or inline where fork is unavailable.
    ``batch_size`` caps the adaptive batch sizer.
    """
    n = resolve_jobs(jobs)
    name = resolve_backend_name(backend, n)
    shared = get_backend(name, jobs=n) if name != "inline" else None
    return Executor(shared, cache=cache, batch_size=batch_size)
