"""The scheduler: queue → executors, with in-flight deduplication.

The scheduler owns the :class:`~repro.service.queue.JobQueue` and a
small pool of asyncio worker tasks.  Each worker pops the next item
and runs its (blocking, CPU-bound) work function on a thread via
``asyncio.to_thread`` — the engine underneath is the same
:mod:`repro.exec` executor/cache stack the CLI uses, so a served
result is byte-identical to a local ``repro reproduce``.

**Coalescing.**  Every job carries a content-address token derived
from the same :func:`~repro.exec.cache.stable_token` scheme the result
cache uses.  Submitting work whose token matches a job that is already
queued or running does not enqueue anything: the caller is handed the
existing record, and one execution feeds every submitter.  (The result
cache alone cannot provide this — it deduplicates *completed* work;
the scheduler deduplicates *in-flight* work, which is what protects
the service when a thousand clients ask for ``figure4`` at once.)

**Lifecycle.**  ``queued → running → done | failed``, with
``cancelled`` reachable only from ``queued`` — a running measurement
is never interrupted, because partial simulation state is worthless.
``shutdown()`` is graceful by construction: admission closes, queued
jobs are cancelled, and in-flight jobs run to completion (bounded by
``grace`` seconds).
"""

from __future__ import annotations

import asyncio
import enum
import itertools
import time
import uuid
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from repro.errors import ReproError
from repro.exec.cache import stable_token
from repro.obs.logging import StructuredLogger, get_logger
from repro.obs.metrics import MetricsRegistry
from repro.service.protocol import DEFAULT_PRIORITY
from repro.chaos import should_fire as chaos_should_fire
from repro.service.queue import JobQueue, QueueFull

#: Finished job records kept for status/result polling.
HISTORY_LIMIT = 1024


class SchedulerClosed(Exception):
    """Submission after shutdown began."""


class JobState(enum.Enum):
    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"

    @property
    def finished(self) -> bool:
        return self in (JobState.DONE, JobState.FAILED, JobState.CANCELLED)


@dataclass
class JobRecord:
    """One unit of work and everything the protocol can ask about it."""

    id: str
    token: str
    kind: str
    description: str
    client: str
    priority: int
    run: Callable[[], Mapping[str, Any]]
    state: JobState = JobState.QUEUED
    submitted_at: float = field(default_factory=time.monotonic)
    started_at: float | None = None
    finished_at: float | None = None
    payload: Mapping[str, Any] | None = None
    error: str | None = None
    #: How many submissions this record absorbed beyond the first.
    coalesced: int = 0
    #: Artifact label for the per-artifact duration histogram, if any.
    artifact: str | None = None
    #: The slow-job watchdog warns once per record.
    warned_slow: bool = False
    done_event: asyncio.Event = field(default_factory=asyncio.Event)

    def snapshot(self) -> dict[str, Any]:
        """The status payload (never includes the result body)."""
        now = time.monotonic()
        info: dict[str, Any] = {
            "id": self.id,
            "state": self.state.value,
            "kind": self.kind,
            "description": self.description,
            "priority": self.priority,
            "coalesced": self.coalesced,
            "age_seconds": round(now - self.submitted_at, 6),
        }
        if self.started_at is not None:
            end = self.finished_at if self.finished_at is not None else now
            info["run_seconds"] = round(end - self.started_at, 6)
        if self.error is not None:
            info["error"] = self.error
        return info


@dataclass
class SchedulerStats:
    """Lifetime accounting (mirrored into the metrics registry)."""

    submitted: int = 0
    coalesced: int = 0
    executed: int = 0
    completed: int = 0
    failed: int = 0
    cancelled: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "submitted": self.submitted,
            "coalesced": self.coalesced,
            "executed": self.executed,
            "completed": self.completed,
            "failed": self.failed,
            "cancelled": self.cancelled,
        }


class Scheduler:
    """Admission, deduplication, dispatch, and job bookkeeping."""

    def __init__(
        self,
        queue: JobQueue | None = None,
        workers: int = 1,
        registry: MetricsRegistry | None = None,
        logger: StructuredLogger | None = None,
        slow_job_threshold: float | None = 30.0,
        slow_check_interval: float | None = None,
        backend: str | None = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if backend is not None:
            from repro.backend import resolve_backend_name

            backend = resolve_backend_name(backend)  # fail at construction
        if slow_job_threshold is not None and slow_job_threshold <= 0:
            raise ValueError(
                f"slow_job_threshold must be > 0, got {slow_job_threshold}"
            )
        self.queue = queue if queue is not None else JobQueue()
        self.workers = workers
        #: Execution backend for measurement plans (None = resolve per
        #: run from --backend/REPRO_BACKEND, exactly like the CLI).
        self.backend = backend
        self.stats = SchedulerStats()
        self.registry = registry
        self.logger = logger if logger is not None else get_logger()
        self.slow_job_threshold = slow_job_threshold
        self.slow_check_interval = (
            slow_check_interval
            if slow_check_interval is not None
            else max(0.5, (slow_job_threshold or 30.0) / 5.0)
        )
        self._jobs: dict[str, JobRecord] = {}
        self._inflight: dict[str, JobRecord] = {}  # token -> queued/running
        self._running = 0
        self._closing = False
        self._wake = asyncio.Event()
        self._tasks: list[asyncio.Task] = []
        self._watchdog_task: asyncio.Task | None = None
        self._seq = itertools.count(1)

    # -- metrics helpers --------------------------------------------------

    def _metric(self, name: str):
        return self.registry.get(name) if self.registry is not None else None

    def _count(self, name: str, amount: float = 1.0) -> None:
        metric = self._metric(name)
        if metric is not None:
            metric.inc(amount)

    def _observe(self, name: str, value: float) -> None:
        metric = self._metric(name)
        if metric is not None:
            metric.observe(value)

    @property
    def running(self) -> int:
        return self._running

    @property
    def closing(self) -> bool:
        return self._closing

    # -- admission --------------------------------------------------------

    def submit(
        self,
        *,
        token: str,
        kind: str,
        description: str,
        run: Callable[[], Mapping[str, Any]],
        client: str = "anon",
        priority: int = DEFAULT_PRIORITY,
        artifact: str | None = None,
    ) -> tuple[JobRecord, bool]:
        """Admit (or coalesce) one job; returns (record, coalesced).

        Raises :class:`~repro.service.queue.QueueFull` under
        backpressure and :class:`SchedulerClosed` during shutdown.
        """
        if self._closing:
            raise SchedulerClosed("scheduler is shutting down")
        existing = self._inflight.get(token)
        if existing is not None and not existing.state.finished:
            existing.coalesced += 1
            self.stats.coalesced += 1
            self._count("repro_jobs_coalesced_total")
            self.logger.info(
                "job.coalesced", job=existing.id, client=client, kind=kind
            )
            return existing, True
        record = JobRecord(
            id=f"job-{next(self._seq)}-{uuid.uuid4().hex[:8]}",
            token=token,
            kind=kind,
            description=description,
            client=client,
            priority=priority,
            run=run,
            artifact=artifact,
        )
        try:
            if chaos_should_fire("queue-full"):
                # Simulated backpressure: reject exactly as a saturated
                # queue would, retry_after hint and all, so client
                # backoff can be exercised without actually filling up.
                raise QueueFull(
                    self.queue.depth,
                    self.queue.max_depth,
                    self.queue.retry_after_hint(),
                )
            self.queue.push(record, client=client, priority=priority)
        except Exception:
            self._count("repro_queue_rejected_total")
            raise
        self._jobs[record.id] = record
        self._inflight[token] = record
        self.stats.submitted += 1
        self._count("repro_jobs_submitted_total")
        self.logger.info(
            "job.submitted",
            job=record.id,
            client=client,
            kind=kind,
            description=description,
        )
        self._trim_history()
        self._wake.set()
        return record, False

    def get(self, job_id: str) -> JobRecord | None:
        return self._jobs.get(job_id)

    def cancel(self, job_id: str) -> JobRecord | None:
        """Cancel a queued job; returns None for unknown ids.

        Raises :class:`ReproError` if the job is past the point of
        cancellation (running or finished).
        """
        record = self._jobs.get(job_id)
        if record is None:
            return None
        if record.state is not JobState.QUEUED:
            raise ReproError(
                f"job {job_id} is {record.state.value}; "
                "only queued jobs can be cancelled"
            )
        self.queue.remove(record)
        self._finish(record, JobState.CANCELLED, error="cancelled by client")
        self.stats.cancelled += 1
        self._count("repro_jobs_cancelled_total")
        return record

    # -- dispatch ---------------------------------------------------------

    def start(self) -> None:
        """Spawn the worker tasks (idempotent; needs a running loop)."""
        if self._tasks:
            return
        self._tasks = [
            asyncio.create_task(self._worker(), name=f"repro-worker-{i}")
            for i in range(self.workers)
        ]
        if self.slow_job_threshold is not None:
            self._watchdog_task = asyncio.create_task(
                self._watchdog(), name="repro-slow-watchdog"
            )

    async def _worker(self) -> None:
        while True:
            record = self.queue.pop()
            if record is None:
                if self._closing:
                    return
                self._wake.clear()
                await self._wake.wait()
                continue
            await self._execute(record)

    async def _execute(self, record: JobRecord) -> None:
        record.state = JobState.RUNNING
        record.started_at = time.monotonic()
        self._observe(
            "repro_queue_wait_seconds", record.started_at - record.submitted_at
        )
        self._running += 1
        self.stats.executed += 1
        try:
            record.payload = await asyncio.to_thread(record.run)
        except Exception as exc:
            self._finish(record, JobState.FAILED, error=f"{type(exc).__name__}: {exc}")
            self.stats.failed += 1
            self._count("repro_jobs_failed_total")
            self.logger.error(
                "job.failed", job=record.id, error=record.error
            )
        else:
            self._finish(record, JobState.DONE)
            self.stats.completed += 1
            self._count("repro_jobs_completed_total")
        finally:
            self._running -= 1
            if record.started_at is not None and record.finished_at is not None:
                run_seconds = record.finished_at - record.started_at
                self._observe("repro_job_duration_seconds", run_seconds)
                if record.artifact is not None:
                    family = self._metric("repro_artifact_duration_seconds")
                    if family is not None:
                        family.observe(run_seconds, record.artifact)
                if record.state is JobState.DONE:
                    self.logger.info(
                        "job.done",
                        job=record.id,
                        run_seconds=round(run_seconds, 6),
                        coalesced=record.coalesced,
                    )

    def _finish(
        self, record: JobRecord, state: JobState, error: str | None = None
    ) -> None:
        record.state = state
        record.error = error
        record.finished_at = time.monotonic()
        if self._inflight.get(record.token) is record:
            del self._inflight[record.token]
        record.done_event.set()

    # -- slow-job watchdog -------------------------------------------------

    async def _watchdog(self) -> None:
        """Periodically flag jobs that have been running too long."""
        while True:
            await asyncio.sleep(self.slow_check_interval)
            self.check_slow_jobs()

    def check_slow_jobs(self, now: float | None = None) -> int:
        """Warn (once per job) about running jobs past the threshold.

        Returns how many new warnings were issued.  Exposed as a plain
        method so tests (and embedding callers) can sweep on their own
        clock instead of waiting out the watchdog interval.
        """
        if self.slow_job_threshold is None:
            return 0
        now = time.monotonic() if now is None else now
        warned = 0
        for record in list(self._jobs.values()):
            if record.state is not JobState.RUNNING or record.warned_slow:
                continue
            if record.started_at is None:
                continue
            run_seconds = now - record.started_at
            if run_seconds < self.slow_job_threshold:
                continue
            record.warned_slow = True
            warned += 1
            self._count("repro_slow_job_warnings_total")
            self.logger.warning(
                "job.slow",
                job=record.id,
                kind=record.kind,
                description=record.description,
                run_seconds=round(run_seconds, 3),
                threshold_seconds=self.slow_job_threshold,
            )
        return warned

    def _trim_history(self) -> None:
        if len(self._jobs) <= HISTORY_LIMIT:
            return
        for job_id, record in list(self._jobs.items()):
            if len(self._jobs) <= HISTORY_LIMIT:
                break
            if record.state.finished:
                del self._jobs[job_id]

    # -- shutdown ---------------------------------------------------------

    async def shutdown(self, grace: float | None = 30.0) -> None:
        """Close admission, cancel queued work, drain running work.

        Jobs already executing finish normally (a measurement cannot be
        resumed); after ``grace`` seconds the workers are abandoned.
        """
        self._closing = True
        for record in self.queue.drain():
            self._finish(record, JobState.CANCELLED, error="server shutdown")
            self.stats.cancelled += 1
            self._count("repro_jobs_cancelled_total")
        self._wake.set()
        if self._watchdog_task is not None:
            self._watchdog_task.cancel()
            try:
                await self._watchdog_task
            except asyncio.CancelledError:
                pass
            self._watchdog_task = None
        if not self._tasks:
            return
        pending = asyncio.gather(*self._tasks, return_exceptions=True)
        try:
            await asyncio.wait_for(pending, timeout=grace)
        except asyncio.TimeoutError:
            for task in self._tasks:
                task.cancel()
        self._tasks = []


# -- job builders ----------------------------------------------------------

def _json_safe(value: Any) -> Any:
    """A JSON-encodable rendering of experiment summaries/rows."""
    if isinstance(value, Mapping):
        return {str(key): _json_safe(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(item) for item in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


def artifact_job(
    artifact: str, repeats: int | None = None, seed: int = 0
) -> tuple[str, str, Callable[[], dict[str, Any]]]:
    """(token, description, run) for a registered paper artifact.

    The run function goes through the same
    :func:`repro.experiments.run_artifact` entry point as the CLI, so
    the served ``report`` text is byte-identical to what
    ``repro reproduce`` prints for the same repeats and seed.
    """
    from repro.experiments import ALL_EXPERIMENTS, run_artifact

    if artifact not in ALL_EXPERIMENTS:
        known = ", ".join(ALL_EXPERIMENTS)
        raise ReproError(f"unknown artifact {artifact!r}; known: {known}")
    token = stable_token("service-artifact", artifact, repeats, seed)
    description = f"artifact {artifact} (repeats={repeats}, seed={seed})"

    def run() -> dict[str, Any]:
        result = run_artifact(artifact, repeats=repeats, seed=seed)
        return {
            "artifact": artifact,
            "report": result.report(),
            "notes": list(result.notes),
            "summary": _json_safe(result.summary),
        }

    return token, description, run


def _build_plan(plan_data: Mapping[str, Any]):
    """A :class:`MeasurementPlan` from its declarative JSON form."""
    from repro.core.compiler import OptLevel
    from repro.core.config import MeasurementConfig, Mode, Pattern
    from repro.exec.plan import BenchmarkSpec, MeasurementJob, MeasurementPlan

    jobs_data = plan_data.get("jobs")
    if not isinstance(jobs_data, (list, tuple)) or not jobs_data:
        raise ReproError("plan must carry a non-empty 'jobs' list")
    patterns = {p.short: p for p in Pattern}
    modes = {m.value: m for m in Mode}
    opts = {o.value.lstrip("-"): o for o in OptLevel}
    jobs = []
    for index, job_data in enumerate(jobs_data):
        if not isinstance(job_data, Mapping):
            raise ReproError(f"plan job #{index} must be a mapping")
        config_data = dict(job_data.get("config") or {})
        try:
            if "pattern" in config_data:
                config_data["pattern"] = patterns[config_data["pattern"]]
            if "mode" in config_data:
                config_data["mode"] = modes[config_data["mode"]]
            if "opt" in config_data:
                config_data["opt_level"] = opts[config_data.pop("opt").lstrip("-")]
            config = MeasurementConfig(**config_data)
        except (KeyError, TypeError) as exc:
            raise ReproError(f"plan job #{index} has a bad config: {exc}") from None
        bench_data = job_data.get("benchmark") or {"kind": "null"}
        benchmark = BenchmarkSpec(
            kind=bench_data.get("kind", "null"),
            args=tuple(bench_data.get("args", ())),
        )
        tags = tuple(sorted((job_data.get("tags") or {}).items()))
        jobs.append(MeasurementJob(config=config, benchmark=benchmark, tags=tags))
    fields = plan_data.get("result_fields")
    if fields is not None:
        return MeasurementPlan(jobs=tuple(jobs), result_fields=tuple(fields))
    return MeasurementPlan(jobs=tuple(jobs))


def plan_job(
    plan_data: Mapping[str, Any],
    backend: str | None = None,
) -> tuple[str, str, Callable[[], dict[str, Any]]]:
    """(token, description, run) for a declarative measurement plan.

    The token is the plan's own cache token (built from the per-job
    content addresses), so two clients POSTing the same sweep coalesce
    even though they never exchanged ids.  ``backend`` pins the
    execution backend (the server passes its ``--backend``); None
    resolves per run from ``REPRO_BACKEND`` / worker count.
    """
    from repro.exec import get_executor

    plan = _build_plan(plan_data)  # validate at admission, not at run time
    token = plan.cache_token()
    description = f"plan with {len(plan)} job(s)"

    def run() -> dict[str, Any]:
        # Respects --jobs / REPRO_JOBS, --batch-size / REPRO_BATCH and
        # --backend / REPRO_BACKEND, so a service with workers
        # configured lands big plans on the persistent warm fleet —
        # shared across jobs, which is where the fleet pays off —
        # exactly like the CLI does.
        table = get_executor(backend=backend).run(plan)
        return {
            "columns": list(table.column_names),
            "rows": [_json_safe(row) for row in table.rows()],
        }

    return token, description, run
