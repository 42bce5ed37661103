"""Warm-fleet failure handling: worker death must not move a byte.

A worker that dies mid-batch (OOM killer, crash) is detected by pipe
EOF, respawned with its templates re-registered, and its in-flight
batches re-dispatched.  The results must be byte-identical to an
undisturbed run — every job re-executes from its own seed — and the
``repro_backend_worker_restarts`` accounting must record the incident.
"""

import contextlib
import os
import pickle
import signal
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import pytest

from repro.backend import GLOBAL_STATS, make_backend, warm, warm_available
from repro.backend.warm import WarmBackend, WorkerFailure
from repro.core.config import Mode, Pattern
from repro.core.sweep import SweepSpec
from repro.exec import Executor
from repro.obs.metrics import build_unified_registry

pytestmark = pytest.mark.skipif(
    not warm_available(), reason="warm backend needs the fork start method"
)


def small_plan(base_seed: int = 0):
    return SweepSpec(
        processors=("CD",),
        infras=("pm", "pc"),
        patterns=(Pattern.START_READ, Pattern.READ_READ),
        modes=(Mode.USER, Mode.USER_KERNEL),
        repeats=2,
        base_seed=base_seed,
        io_interrupts=False,
    ).plan()


def collect_all(backend, submitted):
    """Collect every submitted batch, reassembled in submission order."""
    by_batch = {}
    while len(by_batch) < len(submitted):
        done = backend.collect()
        by_batch[done.batch_id] = done.results
    return [result for bid in submitted for result in by_batch[bid]]


class TestWorkerDeath:
    def test_killed_worker_is_replaced_and_results_are_identical(self):
        plan = small_plan()
        jobs = list(plan)
        baseline = [job.execute() for job in jobs]

        backend = make_backend("warm", workers=2)
        restarts_before = GLOBAL_STATS.worker_restarts
        try:
            backend.prepare(jobs)
            submitted = []
            for start in range(0, len(jobs), 4):
                chunk = jobs[start:start + 4]
                submitted.append(
                    backend.submit(chunk)
                )
            # SIGKILL one worker while its batches are in flight: the
            # coordinator must see EOF, respawn, and re-dispatch.
            os.kill(backend.worker_pids[0], signal.SIGKILL)
            results = collect_all(backend, submitted)
        finally:
            backend.shutdown(grace=2.0)

        assert results == baseline
        assert backend.stats.worker_restarts >= 1
        assert GLOBAL_STATS.worker_restarts > restarts_before

    def test_revived_worker_gets_templates_larger_than_a_pipe(
        self, monkeypatch
    ):
        # A replacement joins the fleet only after its TEMPLATES frame is
        # written.  A frame larger than the pipe must still reach it when
        # the replacement is slow to start reading; the coordinator must
        # neither take it for dead nor revive other workers meanwhile.
        jobs = list(SweepSpec(
            repeats=1, n_counters=(1, 2, 3), io_interrupts=False
        ).plan())
        batch = jobs[:8]
        baseline = [job.execute() for job in batch]

        backend = make_backend("warm", workers=2)
        try:
            backend.prepare(jobs)
            assert len(pickle.dumps(backend._template_defs)) > 1 << 16
            # The replacement starts reading only once its pipe is full.
            worker_main = warm._worker_main

            def late_worker_main(*args):
                time.sleep(0.2)
                worker_main(*args)

            monkeypatch.setattr(warm, "_worker_main", late_worker_main)
            # Worker 0 is idle and first in line, so the batch goes to
            # it and completes only once it has been revived.
            os.kill(backend.worker_pids[0], signal.SIGKILL)
            submitted = [backend.submit(batch)]
            results = collect_all(backend, submitted)
        finally:
            backend.shutdown(grace=2.0)

        assert results == baseline
        assert backend.stats.worker_restarts >= 1

    def test_restart_shows_up_in_the_metrics_registry(self):
        registry = build_unified_registry()
        plan = small_plan(base_seed=1)
        jobs = list(plan)

        backend = make_backend("warm", workers=2)
        try:
            backend.prepare(jobs)
            submitted = [backend.submit(jobs)]
            os.kill(backend.worker_pids[-1], signal.SIGKILL)
            collect_all(backend, submitted)
        finally:
            backend.shutdown(grace=2.0)

        rendered = registry.render()
        for line in rendered.splitlines():
            if line.startswith("repro_backend_worker_restarts"):
                assert int(line.split()[-1]) >= 1
                break
        else:
            pytest.fail("repro_backend_worker_restarts gauge not rendered")

    def test_executor_run_survives_worker_death(self):
        # End to end through the executor facade: a timer thread kills
        # a worker while run() is dispatching; whether the kill lands
        # mid-batch or between plans, the table must match inline.
        plan = small_plan(base_seed=2)
        inline = Executor(make_backend("inline"), cache=None).run(plan)

        backend = make_backend("warm", workers=2)

        def kill_soon():
            time.sleep(0.05)
            pids = backend.worker_pids
            if pids:
                os.kill(pids[0], signal.SIGKILL)

        killer = threading.Thread(target=kill_soon)
        try:
            killer.start()
            table = Executor(backend, cache=None).run(plan)
        finally:
            killer.join()
            backend.shutdown(grace=2.0)
        assert table.to_csv() == inline.to_csv()


class _ExplodingJob:
    """Picklable job that always fails in the worker."""

    def execute(self):
        raise ValueError("boom")


class _SleepyJob:
    """Picklable job that wedges its worker for a long time."""

    def __init__(self, seconds: float) -> None:
        self.seconds = seconds

    def execute(self):
        time.sleep(self.seconds)
        return "slept"


class TestSharedFleetIsolation:
    def test_failed_run_does_not_poison_the_next(self):
        # A WorkerFailure unwinds execute() mid-flight; the abandoned
        # batches, stale failures, and late-arriving frames must not
        # leak into the next run on the same (shared) fleet.
        plan = small_plan(base_seed=5)
        jobs = list(plan)
        baseline = [job.execute() for job in jobs]

        backend = make_backend("warm", workers=2)
        try:
            with pytest.raises(WorkerFailure):
                backend.execute([_ExplodingJob() for _ in range(8)])
            assert backend.inflight == 0
            outcome = backend.execute(jobs)
        finally:
            backend.shutdown(grace=5.0)
        assert outcome.results == baseline

    def test_concurrent_executes_serialize_without_mixing(self):
        # serve --workers N drives the shared fleet from several
        # threads at once; runs must queue on the backend's lock, not
        # interleave pipes and steal each other's batches.
        plans = [small_plan(base_seed=10 + i) for i in range(3)]
        baselines = [[job.execute() for job in plan] for plan in plans]

        backend = make_backend("warm", workers=2)
        outcomes = [None] * len(plans)
        errors = []

        def run(slot):
            jobs = list(plans[slot])
            try:
                outcomes[slot] = backend.execute(jobs)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=run, args=(slot,))
            for slot in range(len(plans))
        ]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120.0)
        finally:
            backend.shutdown(grace=5.0)
        assert not errors
        for outcome, baseline in zip(outcomes, baselines):
            assert outcome is not None
            assert outcome.results == baseline


class TestGracefulShutdown:
    def test_shutdown_grace_bounds_a_wedged_worker(self):
        # A worker stuck on a pathological job must not hold shutdown
        # (which runs atexit) hostage: the drain gives up at the grace
        # deadline and the worker is terminated.
        backend = make_backend("warm", workers=2)
        backend.submit([_SleepyJob(120.0)])
        start = time.monotonic()
        drained = backend.shutdown(grace=0.5)
        elapsed = time.monotonic() - start
        assert drained == []
        assert elapsed < 10.0
        assert backend.worker_pids == []

    def test_shutdown_drains_in_flight_batches(self):
        plan = small_plan(base_seed=3)
        jobs = list(plan)
        backend = make_backend("warm", workers=2)
        backend.prepare(jobs)
        submitted = []
        for start in range(0, len(jobs), 8):
            chunk = jobs[start:start + 8]
            submitted.append(
                backend.submit(chunk)
            )
        drained = backend.shutdown(grace=10.0)
        assert sorted(done.batch_id for done in drained) == sorted(submitted)
        assert sum(done.jobs for done in drained) == len(jobs)
        assert backend.worker_pids == []

    def test_workers_exit_after_shutdown(self):
        backend = make_backend("warm", workers=2)
        backend.prepare(list(small_plan(base_seed=4)))
        procs = [worker.proc for worker in backend._workers]
        assert procs and all(proc.is_alive() for proc in procs)
        backend.shutdown(grace=5.0)
        deadline = time.monotonic() + 5.0
        while any(p.is_alive() for p in procs) and time.monotonic() < deadline:
            time.sleep(0.01)
        assert not any(proc.is_alive() for proc in procs)

    def test_shutdown_reaps_a_stopped_worker(self):
        # A stopped worker does not act on SIGTERM: shutdown must still
        # end it, or interpreter exit hangs joining it.
        backend = make_backend("warm", workers=2)
        backend.prepare(list(small_plan(base_seed=4)))
        procs = [worker.proc for worker in backend._workers]
        os.kill(procs[0].pid, signal.SIGSTOP)
        try:
            backend.shutdown(grace=0.5)
            assert [proc.is_alive() for proc in procs] == [False, False]
            assert all(proc.exitcode is not None for proc in procs)
        finally:
            for proc in procs:
                if proc.is_alive():
                    os.kill(proc.pid, signal.SIGKILL)

    def test_process_with_a_stopped_worker_exits(self):
        script = textwrap.dedent("""
            import os, signal
            from repro.backend import make_backend
            from tests.backend.test_warm_robustness import small_plan

            backend = make_backend("warm", workers=2)
            backend.prepare(list(small_plan(base_seed=4)))
            print(*backend.worker_pids, flush=True)
            os.kill(backend.worker_pids[0], signal.SIGSTOP)
            backend.shutdown(grace=0.5)
        """)
        root = Path(__file__).resolve().parents[2]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src"), str(root), env.get("PYTHONPATH", "")]
        )
        proc = subprocess.Popen(
            [sys.executable, "-c", script], stdout=subprocess.PIPE,
            text=True, env=env, cwd=root,
        )
        pids = [int(pid) for pid in proc.stdout.readline().split()]
        try:
            assert proc.wait(timeout=20) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            for pid in pids:  # a hung run leaves its stopped worker
                with contextlib.suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)
        assert len(pids) == 2

    def test_shutdown_is_idempotent_and_submit_after_is_an_error(self):
        backend = make_backend("warm", workers=2)
        backend.shutdown(grace=1.0)
        assert backend.shutdown(grace=1.0) == []
        with pytest.raises(RuntimeError, match="shut down"):
            backend.submit([])

    def test_unavailable_platforms_refuse_loudly(self, monkeypatch):
        from repro.backend import warm as warm_module
        from repro.errors import ConfigurationError

        monkeypatch.setattr(warm_module, "warm_available", lambda: False)
        with pytest.raises(ConfigurationError, match="fork"):
            WarmBackend(max_workers=2)
