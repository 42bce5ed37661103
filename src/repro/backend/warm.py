"""The warm backend: a persistent fleet of pre-warmed worker processes.

This is the backend that makes ``--jobs N`` actually win.  A per-run
process pool pays three recurring costs that eat the multi-core
speedup: process spawn per run, a pickled plan per batch, and cold
snapshot stores in every worker.  The warm backend removes all three:

* **Workers persist.**  N processes are forked once (per backend
  instance) and survive across :meth:`WarmBackend.execute` calls, so a
  service handling many plans — or a sweep driving many runs — pays
  spawn cost once.

* **Frames, not pickles.**  Jobs travel as 12-byte
  ``(template id, seed)`` entries over a length-prefixed binary
  protocol (:mod:`repro.backend.frames`).  The coordinator
  registers each plan's config/benchmark *templates* with every worker
  once; after that a 500-job batch is a few KB of frame instead of 500
  pickled object graphs.

* **Snapshots are pre-populated.**  Template registration calls
  :func:`repro.kernel.snapshot.preload_images` in the worker, so the
  slow half of every machine boot is already cached before the first
  job arrives.

Determinism is untouched: a worker rebuilds each job as
``dataclasses.replace(template config, seed=entry seed)`` — the same
frozen config the coordinator holds — and every job runs on a machine
in the boot state of its own seed, so results are byte-identical to the
inline backend no matter which worker runs which batch in which order.  A
worker that dies mid-batch (OOM-killed, crashed) is detected by pipe
EOF, respawned, re-registered, and its in-flight batches re-dispatched;
``repro_backend_worker_restarts`` counts it, the results do not change.
"""

from __future__ import annotations

import dataclasses
import logging
import multiprocessing
import os
import pickle
import select
import time
from collections import deque
from typing import Any, Sequence

from repro.backend import frames
from repro.backend.base import (
    GLOBAL_STATS,
    CompletedBatch,
    ExecutionBackend,
    run_batch_jobs,
)
from repro.backend.frames import EndOfStream, FrameError, FrameReader
from repro.backend.knobs import (
    resolve_deadline,
    resolve_jobs,
    resolve_slow_threshold,
)
from repro.errors import ConfigurationError
from repro.obs.metrics import inc_counter, observe_family

log = logging.getLogger("repro.backend.warm")

#: How often the collect loop wakes to run the watchdog when a slow-job
#: threshold or per-job deadline is configured.
_WATCHDOG_SLICE = 0.05


class WorkerFailure(Exception):
    """A job raised inside a warm worker; the worker itself survived."""


class _WorkerDied(Exception):
    """Internal signal: the peer of this pipe is gone."""

    def __init__(self, worker: "_Worker") -> None:
        super().__init__(f"worker {worker.index} died")
        self.worker = worker


# -- the worker process -----------------------------------------------------

def _worker_main(read_fd: int, write_fd: int, close_fds: Sequence[int]) -> None:
    """The worker's event loop: read frames, run batches, ship results.

    Runs in a forked child.  ``close_fds`` are coordinator-side pipe
    ends inherited across the fork; closing them keeps EOF detection
    honest in both directions.
    """
    for fd in close_fds:
        try:
            os.close(fd)
        except OSError:
            pass
    # Imported here: the fork happens after repro is loaded, and the
    # coordinator-side module must not import the exec layer (cycle).
    from repro.exec.plan import MeasurementJob
    from repro.kernel.snapshot import preload_images

    templates: dict[int, tuple[Any, Any]] = {}
    try:
        frames.write_frame(write_fd, frames.HELLO)
        while True:
            try:
                kind, payload = frames.read_frame(read_fd)
            except EndOfStream:
                break
            if kind == frames.SHUTDOWN:
                break
            if kind == frames.TEMPLATES:
                boots = []
                for template_id, config, benchmark in pickle.loads(payload):
                    templates[template_id] = (config, benchmark)
                    boots.append((config.processor, config.substrate))
                preload_images(boots)
                continue
            if kind != frames.BATCH:
                raise FrameError(f"worker got unexpected frame kind {kind}")
            batch = frames.decode_batch(payload)
            try:
                extras = iter(batch.extras)
                jobs = []
                for template_id, seed in batch.entries:
                    if template_id == frames.EXTRA_JOB:
                        jobs.append(next(extras))
                    else:
                        config, benchmark = templates[template_id]
                        jobs.append(MeasurementJob(
                            config=dataclasses.replace(config, seed=seed),
                            benchmark=benchmark,
                        ))
                results, hits, seconds = run_batch_jobs(jobs)
            # Exception only: KeyboardInterrupt/SystemExit must kill
            # the worker (Ctrl-C signals the whole process group), not
            # come home disguised as a batch failure.
            except Exception as exc:  # ship it home, stay alive
                frames.write_frame(
                    write_fd,
                    frames.FAILURE,
                    pickle.dumps(
                        (batch.batch_id, f"{type(exc).__name__}: {exc}")
                    ),
                )
                continue
            frames.write_frame(
                write_fd,
                frames.RESULTS,
                frames.encode_results(batch.batch_id, hits, seconds, results),
            )
    except (BrokenPipeError, EndOfStream):
        pass  # coordinator is gone; nothing left to report to
    finally:
        try:
            os.close(write_fd)
        except OSError:
            pass


# -- coordinator-side bookkeeping ------------------------------------------

class _Worker:
    """One live worker process and its coordinator-side pipe ends."""

    __slots__ = ("index", "proc", "to_fd", "from_fd", "reader", "inflight")

    def __init__(
        self,
        index: int,
        proc: multiprocessing.Process,
        to_fd: int,
        from_fd: int,
    ) -> None:
        self.index = index
        self.proc = proc
        self.to_fd = to_fd
        self.from_fd = from_fd
        self.reader = FrameReader()
        #: Batch ids dispatched to this worker, not yet collected.
        self.inflight: set[int] = set()

    @property
    def pid(self) -> "int | None":
        return self.proc.pid

    def close(self) -> None:
        for fd in (self.to_fd, self.from_fd):
            if fd >= 0:
                try:
                    os.close(fd)
                except OSError:
                    pass
        # Sentinel so spawn's sibling-fd list and drain's select never
        # pick up a number the OS may have recycled for a new pipe.
        self.to_fd = -1
        self.from_fd = -1


class _PendingBatch:
    """A dispatched batch the coordinator could re-send if needed."""

    __slots__ = ("payload", "jobs")

    def __init__(self, payload: bytes, jobs: int) -> None:
        self.payload = payload
        self.jobs = jobs


def warm_available() -> bool:
    """Whether this platform can run the warm backend (needs fork)."""
    return "fork" in multiprocessing.get_all_start_methods()


class WarmBackend(ExecutionBackend):
    """Persistent fork-based workers fed over binary frames."""

    name = "warm"

    def __init__(
        self, max_workers: int | None = None, batch_cap: int | None = None
    ) -> None:
        super().__init__(batch_cap)
        if not warm_available():
            raise ConfigurationError(
                "the warm backend needs the fork start method "
                "(unavailable on this platform); use --backend inline"
            )
        workers = resolve_jobs(max_workers)
        if workers <= 1:
            workers = os.cpu_count() or 2
        self.max_workers = workers
        self._ctx = multiprocessing.get_context("fork")
        self._workers: list[_Worker] = []
        self._templates: dict[tuple[Any, Any], int] = {}
        self._template_defs: list[tuple[int, Any, Any]] = []
        self._pending: dict[int, _PendingBatch] = {}
        self._redispatch: deque[int] = deque()
        self._completed: deque[CompletedBatch] = deque()
        self._failures: deque[tuple[int, str]] = deque()
        #: When each in-flight batch was (last) dispatched, for the
        #: slow-job and deadline watchdogs.
        self._dispatched_at: dict[int, float] = {}
        #: Batch ids already flagged slow (one warning per batch).
        self._slow_warned: set[int] = set()
        self._next_batch = 0
        self._closed = False
        #: Snapshot hits reported home, per worker slot (metrics feed).
        self.worker_snapshot_hits: dict[int, int] = {}
        #: Batches completed per worker slot (metrics feed).
        self.worker_batches: dict[int, int] = {}

    # -- lifecycle ----------------------------------------------------------

    def _spawn(self, index: int) -> _Worker:
        to_read, to_write = os.pipe()
        from_read, from_write = os.pipe()
        # Everything the child must NOT hold open: its own pipes'
        # coordinator ends, and the coordinator ends of every sibling
        # (a fork inherits them all; a stale write end would mask EOF).
        close_fds = [to_write, from_read]
        for other in self._workers:
            close_fds.extend(
                fd for fd in (other.to_fd, other.from_fd) if fd >= 0
            )
        proc = self._ctx.Process(
            target=_worker_main,
            args=(to_read, from_write, tuple(close_fds)),
            daemon=True,
            name=f"repro-warm-{index}",
        )
        proc.start()
        os.close(to_read)
        os.close(from_write)
        worker = _Worker(index, proc, to_write, from_read)
        self.stats.workers_spawned += 1
        GLOBAL_STATS.workers_spawned += 1
        if self._template_defs:
            # Written blocking, so no results are drained (and no other
            # worker revived) while this one is not yet in _workers.  The
            # child reads its templates before it writes anything but its
            # hello, so the wait cannot deadlock.
            self._send(worker, frames.TEMPLATES,
                       pickle.dumps(self._template_defs))
        os.set_blocking(to_write, False)
        return worker

    def _ensure_workers(self) -> None:
        if self._closed:
            raise RuntimeError("backend is shut down")
        while len(self._workers) < self.max_workers:
            self._workers.append(self._spawn(len(self._workers)))

    def _revive(self, worker: _Worker) -> None:
        """Replace a dead (or wedged) worker; re-queue its batches.

        The worker may still be alive — a corrupt frame or a deadline
        stall revives it too — so it is killed first; ``kill`` on an
        already-exited process is a no-op.
        """
        self.stats.worker_restarts += 1
        GLOBAL_STATS.worker_restarts += 1
        if worker.proc.is_alive():
            worker.proc.kill()
        worker.close()
        worker.proc.join(timeout=1.0)
        orphaned = sorted(worker.inflight)
        for batch_id in orphaned:
            self._dispatched_at.pop(batch_id, None)
        self._workers[worker.index] = self._spawn(worker.index)
        self._redispatch.extend(orphaned)

    @property
    def worker_pids(self) -> list[int]:
        """Live worker pids (test hook: kill one, watch the recovery)."""
        return [w.pid for w in self._workers if w.pid is not None]

    def shutdown(self, grace: float = 5.0) -> list[CompletedBatch]:
        """Drain in-flight batches, then stop every worker.

        The drain is bounded by the grace deadline: a worker wedged on
        a stuck job cannot hold shutdown (this runs atexit) hostage —
        when the deadline passes, remaining batches are abandoned and
        live workers killed.
        """
        with self._execute_lock:
            return self._shutdown_locked(grace)

    def _shutdown_locked(self, grace: float) -> list[CompletedBatch]:
        if self._closed:
            return []
        drained: list[CompletedBatch] = []
        deadline = time.monotonic() + grace
        try:
            while self._pending or self._completed:
                remaining = deadline - time.monotonic()
                if remaining <= 0 and not self._completed:
                    break
                done = self.collect(timeout=max(0.0, remaining))
                if done is None:
                    break  # grace elapsed with batches still wedged
                drained.append(done)
        except WorkerFailure:
            pass  # a failed batch cannot be drained, only abandoned
        self._closed = True
        for worker in self._workers:
            try:
                self._send(worker, frames.SHUTDOWN)
            except (_WorkerDied, OSError):
                pass
        for worker in self._workers:
            worker.proc.join(timeout=max(0.1, deadline - time.monotonic()))
            if worker.proc.is_alive():
                # SIGKILL, not SIGTERM: a stopped worker never acts on
                # SIGTERM, and interpreter exit would then hang joining it.
                worker.proc.kill()
                worker.proc.join(timeout=1.0)
            worker.close()
        self._workers.clear()
        return drained

    # -- frame I/O ----------------------------------------------------------

    def _send(self, worker: _Worker, kind: int, payload: bytes = b"") -> None:
        frame = frames.encode_frame(kind, payload)
        view = memoryview(frame)
        while view:
            try:
                written = os.write(worker.to_fd, view)
                view = view[written:]
            except BlockingIOError:
                # The worker's input pipe is full; drain results so it
                # can make progress (classic pipe-deadlock avoidance).
                self._drain(timeout=0.05)
                if self._workers[worker.index] is not worker:
                    raise _WorkerDied(worker) from None
            except (BrokenPipeError, OSError):
                raise _WorkerDied(worker) from None
        self.stats.frames_sent += 1
        self.stats.frame_bytes_sent += len(frame)
        GLOBAL_STATS.frames_sent += 1
        GLOBAL_STATS.frame_bytes_sent += len(frame)
        observe_family("repro_backend_frame_bytes", "sent", len(frame))

    def _drain(self, timeout: "float | None") -> None:
        """Read whatever results have arrived; revive dead workers."""
        readable_fds = {w.from_fd: w for w in self._workers if w.from_fd >= 0}
        if not readable_fds:
            return
        ready, _, _ = select.select(list(readable_fds), [], [], timeout)
        for fd in ready:
            worker = readable_fds[fd]
            try:
                data = os.read(fd, 1 << 16)
            except OSError:
                data = b""
            if not data:
                self._revive(worker)
                continue
            self.stats.frame_bytes_received += len(data)
            GLOBAL_STATS.frame_bytes_received += len(data)
            try:
                for kind, payload in worker.reader.feed(data):
                    self._handle_frame(worker, kind, payload)
            except FrameError as exc:
                # The stream from this worker can no longer be trusted
                # (bit flip, bad pickle, protocol violation): revive it
                # and re-dispatch whatever it still owed.  The results
                # do not change — re-run jobs execute from their seeds.
                log.warning(
                    "corrupt frame from worker %d (%s); reviving",
                    worker.index, exc,
                )
                self._revive(worker)

    def _handle_frame(
        self, worker: _Worker, kind: int, payload: bytes
    ) -> None:
        self.stats.frames_received += 1
        GLOBAL_STATS.frames_received += 1
        observe_family(
            "repro_backend_frame_bytes",
            "received",
            len(payload) + frames.HEADER_SIZE,
        )
        if kind == frames.HELLO:
            return
        if kind == frames.FAILURE:
            try:
                batch_id, message = pickle.loads(payload)
            except Exception as exc:
                raise FrameError(
                    f"failure frame does not decode: {exc}"
                ) from exc
            worker.inflight.discard(batch_id)
            self._dispatched_at.pop(batch_id, None)
            if self._pending.pop(batch_id, None) is None:
                # The batch was abandoned (its run already unwound) or
                # this is the duplicate of a re-dispatched batch; no
                # run is waiting on it, so the failure must not abort
                # whichever run collects next.
                return
            self._failures.append((batch_id, message))
            return
        if kind != frames.RESULTS:
            raise FrameError(f"coordinator got unexpected frame kind {kind}")
        batch_id, hits, seconds, results = frames.decode_results(payload)
        worker.inflight.discard(batch_id)
        self._dispatched_at.pop(batch_id, None)
        if self._pending.pop(batch_id, None) is None:
            # A batch re-dispatched after a presumed-dead worker in fact
            # finished twice; results are identical by construction, so
            # the second copy is simply dropped.
            return
        self.worker_snapshot_hits[worker.index] = (
            self.worker_snapshot_hits.get(worker.index, 0) + hits
        )
        observe_family(
            "repro_backend_worker_snapshot_hits", str(worker.index), hits
        )
        self.worker_batches[worker.index] = (
            self.worker_batches.get(worker.index, 0) + 1
        )
        self._completed.append(
            CompletedBatch(
                batch_id=batch_id,
                results=results,
                snapshot_hits=hits,
                seconds=seconds,
                worker=worker.index,
            )
        )

    # -- dispatch -----------------------------------------------------------

    def _least_loaded(self) -> _Worker:
        self._ensure_workers()
        return min(self._workers, key=lambda w: (len(w.inflight), w.index))

    def _dispatch(self, batch_id: int) -> None:
        pending = self._pending.get(batch_id)
        if pending is None:
            return
        while True:
            worker = self._least_loaded()
            try:
                self._send(worker, frames.BATCH, pending.payload)
            except _WorkerDied as death:
                if self._workers[death.worker.index] is death.worker:
                    self._revive(death.worker)
                continue
            worker.inflight.add(batch_id)
            self._dispatched_at[batch_id] = time.monotonic()
            return

    def _pump(self) -> None:
        """Re-dispatch batches orphaned by worker deaths."""
        while self._redispatch:
            self._dispatch(self._redispatch.popleft())

    def _template_id(self, job: Any) -> "int | None":
        config = getattr(job, "config", None)
        benchmark = getattr(job, "benchmark", None)
        if config is None or benchmark is None:
            return None
        seed = getattr(config, "seed", None)
        if (
            not isinstance(seed, int)
            or not frames.SEED_MIN <= seed <= frames.SEED_MAX
        ):
            return None
        try:
            key = (dataclasses.replace(config, seed=0), benchmark)
        except TypeError:
            return None
        return self._templates.get(key)

    def prepare(self, jobs: Sequence[Any]) -> None:
        """Register the plan's templates with every worker, once each.

        Templates are config/benchmark pairs with the seed zeroed; a
        worker answering a batch entry re-seeds its registered copy.
        Registration also pre-populates each worker's snapshot store.
        """
        self._ensure_workers()
        new_defs: list[tuple[int, Any, Any]] = []
        for job in jobs:
            config = getattr(job, "config", None)
            benchmark = getattr(job, "benchmark", None)
            if config is None or benchmark is None:
                continue
            try:
                key = (dataclasses.replace(config, seed=0), benchmark)
            except TypeError:
                continue
            if key in self._templates:
                continue
            template_id = len(self._template_defs) + len(new_defs)
            self._templates[key] = template_id
            new_defs.append((template_id, key[0], benchmark))
        if not new_defs:
            return
        self._template_defs.extend(new_defs)
        payload = pickle.dumps(new_defs)
        for worker in list(self._workers):
            try:
                self._send(worker, frames.TEMPLATES, payload)
            except _WorkerDied as death:
                if self._workers[death.worker.index] is death.worker:
                    self._revive(death.worker)

    @property
    def workers(self) -> int:
        return self.max_workers

    @property
    def inflight(self) -> int:
        return len(self._pending) + len(self._completed)

    def submit(self, jobs: Sequence[Any]) -> int:
        batch_id = self._next_batch
        self._next_batch += 1
        entries: list[tuple[int, int]] = []
        extras: list[Any] = []
        for job in jobs:
            template_id = self._template_id(job)
            if template_id is None:
                entries.append((frames.EXTRA_JOB, 0))
                extras.append(job)
            else:
                entries.append((template_id, job.config.seed))
        payload = frames.encode_batch(batch_id, entries, extras=extras)
        self._pending[batch_id] = _PendingBatch(payload, len(entries))
        self._pump()
        self._dispatch(batch_id)
        return batch_id

    def collect(
        self, timeout: "float | None" = None
    ) -> "CompletedBatch | None":
        """Block until an outstanding batch finishes and return it.

        With ``timeout`` set, returns None once that many seconds pass
        with nothing completed — shutdown's drain uses this so a wedged
        worker cannot stall it past the grace deadline.

        When a slow-job threshold or per-job deadline is configured
        (``--slow-job-threshold`` / ``--deadline``, or their knobs),
        the wait runs in short slices and a watchdog inspects every
        in-flight batch between them: past the threshold it warns
        (once per batch, counted in ``repro_slow_job_warnings_total``);
        past ``deadline × batch size`` it revives the worker holding
        the batch — a wedged worker is indistinguishable from a hung
        pipe, and re-run jobs execute from their seeds, so results are
        unchanged.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        slow = resolve_slow_threshold()
        job_deadline = resolve_deadline()
        watchdog = slow is not None or job_deadline is not None
        while True:
            self._pump()
            if self._failures:
                batch_id, message = self._failures.popleft()
                raise WorkerFailure(
                    f"batch {batch_id} failed in worker: {message}"
                )
            if self._completed:
                return self._completed.popleft()
            if not self._pending:
                raise RuntimeError("no batch in flight")
            if watchdog:
                self._check_stalled(time.monotonic(), slow, job_deadline)
                if self._completed or self._redispatch:
                    continue
            wait = None if deadline is None else deadline - time.monotonic()
            if wait is not None and wait <= 0:
                return None
            if watchdog:
                wait = (
                    _WATCHDOG_SLICE if wait is None
                    else min(wait, _WATCHDOG_SLICE)
                )
            self._drain(timeout=wait)

    def _check_stalled(
        self,
        now: float,
        slow: "float | None",
        job_deadline: "float | None",
    ) -> None:
        """Warn about slow batches; revive workers past the deadline."""
        revive: list[_Worker] = []
        for batch_id, started in list(self._dispatched_at.items()):
            pending = self._pending.get(batch_id)
            if pending is None:
                self._dispatched_at.pop(batch_id, None)
                continue
            elapsed = now - started
            if (
                slow is not None
                and elapsed > slow
                and batch_id not in self._slow_warned
            ):
                self._slow_warned.add(batch_id)
                inc_counter("repro_slow_job_warnings_total")
                log.warning(
                    "batch %d running for %.1fs (threshold %.1fs)",
                    batch_id, elapsed, slow,
                )
            if (
                job_deadline is not None
                and elapsed > job_deadline * max(1, pending.jobs)
            ):
                for worker in self._workers:
                    if batch_id in worker.inflight and worker not in revive:
                        revive.append(worker)
                        break
        for worker in revive:
            self.stats.stall_revivals += 1
            GLOBAL_STATS.stall_revivals += 1
            log.warning(
                "worker %d exceeded the per-job deadline with batches "
                "%s in flight; reviving",
                worker.index, sorted(worker.inflight),
            )
            self._revive(worker)

    def _discard_inflight(self) -> None:
        """Abandon batches a previous run left behind when it unwound.

        The fleet is shared across runs: after a WorkerFailure aborts
        one ``execute``, its undelivered failures, uncollected results,
        and still-running batches must not be collected into the next
        run.  Results for an abandoned batch id arriving later are
        dropped by the ``_pending`` check in :meth:`_handle_frame`.
        """
        if not (
            self._pending or self._completed
            or self._failures or self._redispatch
        ):
            return
        self._pending.clear()
        self._completed.clear()
        self._failures.clear()
        self._redispatch.clear()
        self._dispatched_at.clear()
        self._slow_warned.clear()
        for worker in self._workers:
            worker.inflight.clear()

    def __del__(self) -> None:  # best-effort; registry owns real cleanup
        try:
            if not self._closed and self._workers:
                self.shutdown(grace=0.5)
        except Exception:
            pass
