"""The execution-backend contract: submit batches, collect results.

An :class:`ExecutionBackend` is the seam between *what* to run (the
executor in :mod:`repro.exec.executor` hands it fully seeded jobs) and
*where* it runs: in-process (``inline``) or on the persistent
warm-worker fleet (``warm``).  The interface is four operations —
:meth:`~ExecutionBackend.submit` a batch,
:meth:`~ExecutionBackend.collect` a finished one, read
:attr:`~ExecutionBackend.stats`, :meth:`~ExecutionBackend.shutdown` —
plus the shared :meth:`~ExecutionBackend.execute` driver that chops a
job list into adaptively sized batches, keeps every worker fed, and
reassembles results in submission order.

Backends are interchangeable by contract: every job carries its
complete seed and runs on a machine in that seed's boot state, so the
backend must never be observable in the results — only in wall-clock
time and in the :class:`BackendStats` accounting.
``tests/backend/test_backends.py`` and the golden matrix in
``tests/integration/test_golden_outputs.py`` pin this.

**Adaptive batch sizing.**  The driver asks its
:class:`AdaptiveBatchSizer` before each dispatch.  With no measured
cost yet, the sizer falls back to the four-batches-per-worker
heuristic; after the first batch returns it tracks an exponential
moving average of per-job seconds and sizes batches to a fixed latency
target, so cheap null measurements ship hundreds per frame while slow
million-iteration loops ship a handful.  A configured ``--batch-size``
/ ``REPRO_BATCH`` (see :mod:`repro.backend.knobs`) is a *cap* on that
size, not a fixed value.
"""

from __future__ import annotations

import abc
import math
import threading
import time
from dataclasses import dataclass
from typing import Any, Sequence

from repro.backend.knobs import resolve_batch_cap
from repro.kernel.snapshot import snapshot_hits_total


@dataclass
class BackendStats:
    """Per-backend accounting, aggregated process-wide in GLOBAL_STATS.

    ``jobs``/``batches`` count dispatched work, ``snapshot_hits`` the
    machine boots absorbed by a snapshot store while executing it
    (including hits on the far side of a worker boundary, which every
    batch ships home).  The frame counters are warm-backend wire
    accounting; ``worker_restarts`` counts workers that died mid-run
    and were respawned with their batches re-dispatched, and
    ``stall_revivals`` the subset forced by the deadline watchdog
    (worker alive but wedged past the per-job deadline).
    """

    jobs: int = 0
    batches: int = 0
    snapshot_hits: int = 0
    workers_spawned: int = 0
    worker_restarts: int = 0
    stall_revivals: int = 0
    frames_sent: int = 0
    frames_received: int = 0
    frame_bytes_sent: int = 0
    frame_bytes_received: int = 0


#: Process-lifetime aggregate over every backend instance, so a test
#: can see that a recovery happened on a shared backend it never held.
GLOBAL_STATS = BackendStats()


@dataclass(frozen=True)
class CompletedBatch:
    """One batch's outcome, as :meth:`ExecutionBackend.collect` returns it."""

    batch_id: int
    results: list[Any]
    #: Machine boots a snapshot store absorbed while running the batch.
    snapshot_hits: int
    #: Wall-clock seconds the batch took where it ran (feeds the sizer).
    seconds: float
    #: Which worker ran it (-1 for in-process execution).
    worker: int = -1

    @property
    def jobs(self) -> int:
        return len(self.results)


@dataclass(frozen=True)
class ExecutionOutcome:
    """What :meth:`ExecutionBackend.execute` hands the executor."""

    results: list[Any]
    batches: int
    snapshot_hits: int


class AdaptiveBatchSizer:
    """Batch sizes from measured per-job cost, under a configured cap.

    Sizes batches so one dispatch unit runs for about
    :data:`TARGET_SECONDS` where it executes — long enough to amortise
    framing/pickling and IPC, short enough that a straggler batch
    cannot serialise the tail of a big plan.  Before any cost is
    measured the four-batches-per-worker heuristic applies.
    """

    #: Aimed-for wall clock of one batch where it runs.
    TARGET_SECONDS = 0.02
    #: Ceiling when no cap is configured.
    AUTO_CAP = 64
    #: EMA weight of the newest batch's per-job cost.
    ALPHA = 0.5

    def __init__(self) -> None:
        self._per_job_seconds: float | None = None

    @property
    def per_job_seconds(self) -> float | None:
        """The current per-job cost estimate (None before any batch)."""
        return self._per_job_seconds

    def next_size(self, pending: int, workers: int, cap: int | None = None) -> int:
        if cap is not None:
            # A configured --batch-size/REPRO_BATCH pins the dispatch
            # size: batch accounting must stay deterministic (the
            # dispatch-counter tests rely on exactly ceil(n/cap)
            # batches), so the sizer only adapts unconfigured runs.
            return cap
        if self._per_job_seconds is None:
            # No measured cost yet: aim at about four batches per worker.
            return max(1, min(
                self.AUTO_CAP, math.ceil(pending / (max(1, workers) * 4))
            ))
        ideal = int(self.TARGET_SECONDS / max(self._per_job_seconds, 1e-9))
        return max(1, min(ideal, self.AUTO_CAP))

    def record(self, jobs: int, seconds: float) -> None:
        """Fold one completed batch's measured cost into the estimate."""
        if jobs <= 0 or seconds < 0:
            return
        per_job = seconds / jobs
        if self._per_job_seconds is None:
            self._per_job_seconds = per_job
        else:
            self._per_job_seconds = (
                (1 - self.ALPHA) * self._per_job_seconds + self.ALPHA * per_job
            )


def run_batch_jobs(jobs: Sequence[Any]) -> "tuple[list[Any], int, float]":
    """Run one batch's jobs in order, wherever this is called.

    Returns ``(results, snapshot_hits, seconds)``: the results list, how
    many machine boots the local snapshot store absorbed, and measured
    wall-clock seconds.
    """
    hits_before = snapshot_hits_total()
    start = time.perf_counter()
    results = [job.execute() for job in jobs]
    seconds = time.perf_counter() - start
    return results, snapshot_hits_total() - hits_before, seconds


class ExecutionBackend(abc.ABC):
    """Where batches of jobs execute: the submit/collect/stats/shutdown
    contract plus the shared adaptive dispatch driver."""

    #: Registry name ("inline", "warm").
    name = "?"

    def __init__(self, batch_cap: int | None = None) -> None:
        self.stats = BackendStats()
        self.sizer = AdaptiveBatchSizer()
        self.batch_cap = batch_cap
        # Shared instances (get_backend) may be driven from several
        # threads at once; runs serialize here so submit/collect
        # bookkeeping never interleaves.  Reentrant because subclasses
        # wrap execute()/shutdown() and delegate to super().
        self._execute_lock = threading.RLock()

    # -- the backend contract ---------------------------------------------

    @property
    @abc.abstractmethod
    def workers(self) -> int:
        """How many jobs this backend can run concurrently."""

    @property
    @abc.abstractmethod
    def inflight(self) -> int:
        """Batches submitted but not yet collected."""

    @abc.abstractmethod
    def submit(self, jobs: Sequence[Any]) -> int:
        """Dispatch one batch; returns its batch id."""

    @abc.abstractmethod
    def collect(self) -> CompletedBatch:
        """Block until any outstanding batch finishes and return it."""

    def shutdown(self, grace: float = 5.0) -> list[CompletedBatch]:
        """Stop the backend, draining in-flight batches first.

        Returns whatever finished during the drain so no submitted work
        is silently lost.  In-process backends have nothing to do.
        """
        with self._execute_lock:
            drained: list[CompletedBatch] = []
            while self.inflight:
                drained.append(self.collect())
            return drained

    def _discard_inflight(self) -> None:
        """Drop batches left behind by a run that unwound mid-flight.

        A shared backend must not let one run's stale failures or
        leftover results leak into the next: :meth:`execute` calls this
        before its first dispatch and again while unwinding on an
        error.  Backends with cross-call state override it.
        """

    # -- shared accounting -------------------------------------------------

    def _account_batch(self, done: CompletedBatch) -> None:
        self.stats.jobs += done.jobs
        self.stats.batches += 1
        self.stats.snapshot_hits += done.snapshot_hits
        GLOBAL_STATS.jobs += done.jobs
        GLOBAL_STATS.batches += 1
        GLOBAL_STATS.snapshot_hits += done.snapshot_hits

    # -- the dispatch driver ----------------------------------------------

    def _next_batch_size(self, pending: int, cap: int | None) -> int:
        """How many jobs the next dispatch unit carries."""
        return self.sizer.next_size(pending, self.workers, cap)

    def prepare(self, jobs: Sequence[Any]) -> None:
        """Hook: see the whole job list before the first dispatch.

        The warm backend uses this to register config templates and
        pre-populate every worker's snapshot store; the others need
        nothing.
        """

    def execute(
        self, jobs: Sequence[Any], batch_cap: int | None = None
    ) -> ExecutionOutcome:
        """Run every job; results come back in submission order.

        Batches are sized by the adaptive sizer under the resolved cap
        (``batch_cap`` argument > ``--batch-size`` default >
        ``REPRO_BATCH``), dispatch keeps up to one batch per worker
        slot outstanding plus one queued behind each, and each
        completed batch's measured cost re-tunes the next sizes.

        Runs on one backend serialize: concurrent ``execute`` calls
        (threads sharing one warm fleet) queue on an internal lock
        rather than interleave their dispatch bookkeeping.
        """
        jobs = list(jobs)
        cap = resolve_batch_cap(
            batch_cap if batch_cap is not None else self.batch_cap
        )
        with self._execute_lock:
            self._discard_inflight()
            try:
                return self._execute_locked(jobs, cap)
            except BaseException:
                self._discard_inflight()
                raise

    def _execute_locked(
        self, jobs: list[Any], cap: "int | None"
    ) -> ExecutionOutcome:
        self.prepare(jobs)
        order: list[int] = []
        by_batch: dict[int, list[Any]] = {}
        cursor = 0
        snapshot_hits = 0
        max_inflight = max(1, self.workers) * 2
        while cursor < len(jobs) or self.inflight:
            while cursor < len(jobs) and self.inflight < max_inflight:
                size = self._next_batch_size(len(jobs) - cursor, cap)
                batch_id = self.submit(jobs[cursor:cursor + size])
                order.append(batch_id)
                cursor += size
            done = self.collect()
            self.sizer.record(done.jobs, done.seconds)
            self._account_batch(done)
            by_batch[done.batch_id] = done.results
            snapshot_hits += done.snapshot_hits
        results = [result for bid in order for result in by_batch[bid]]
        return ExecutionOutcome(
            results=results, batches=len(order), snapshot_hits=snapshot_hits
        )
