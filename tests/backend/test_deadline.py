"""Per-job deadlines and the slow-job watchdog in the warm backend.

A wedged worker — a runaway job, a stopped process, or a kernel hiccup
— must not hang ``collect()`` forever.  With a slow-job threshold set
the coordinator logs a warning; with a deadline set it revives
the worker and re-dispatches the batch, and because every job carries
its complete seed the recomputed results are byte-identical.  The
tests wedge a worker themselves: SIGSTOP, which the watchdog's SIGKILL
still ends.
"""

import contextlib
import os
import re
import signal
import threading
import time

import pytest

from repro.backend import GLOBAL_STATS, make_backend, warm_available
from repro.backend.knobs import (
    resolve_deadline,
    resolve_slow_threshold,
    set_default_deadline,
)
from repro.errors import ConfigurationError

from tests.backend.test_warm_robustness import small_plan

pytestmark = pytest.mark.skipif(
    not warm_available(), reason="warm backend needs the fork start method"
)


@pytest.fixture(autouse=True)
def clean_watchdog_state():
    yield
    set_default_deadline(None)


def resume(pid):
    """SIGCONT a stopped worker that may already have been revived."""
    try:
        os.kill(pid, signal.SIGCONT)
    except ProcessLookupError:
        pass


@contextlib.contextmanager
def first_worker_stopped(backend, jobs, seconds):
    """Register the plan's templates, then SIGSTOP worker 0 — first in
    line for a batch — until ``seconds`` pass or the block exits."""
    backend.prepare(jobs)
    pid = backend.worker_pids[0]
    os.kill(pid, signal.SIGSTOP)
    waker = threading.Timer(seconds, resume, (pid,))
    waker.start()
    try:
        yield
    finally:
        waker.cancel()
        resume(pid)


class TestKnobs:
    def test_deadline_chain(self, monkeypatch):
        assert resolve_deadline() is None
        set_default_deadline(1.5)
        assert resolve_deadline() == 1.5
        assert resolve_deadline(0.5) == 0.5  # explicit beats default
        set_default_deadline(None)
        monkeypatch.setenv("REPRO_DEADLINE", "2.5")
        assert resolve_deadline() == 2.5

    def test_slow_threshold_chain(self, monkeypatch):
        monkeypatch.delenv("REPRO_SLOW_JOB", raising=False)
        assert resolve_slow_threshold() is None
        monkeypatch.setenv("REPRO_SLOW_JOB", "4.0")
        assert resolve_slow_threshold() == 4.0

    @pytest.mark.parametrize("value", [0, -1.0])
    def test_non_positive_rejected(self, monkeypatch, value):
        with pytest.raises(ConfigurationError, match="> 0"):
            set_default_deadline(value)
        monkeypatch.setenv("REPRO_SLOW_JOB", str(value))
        with pytest.raises(ConfigurationError, match="> 0"):
            resolve_slow_threshold()

    def test_bad_env_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_DEADLINE", "soon")
        with pytest.raises(ConfigurationError, match="REPRO_DEADLINE"):
            resolve_deadline()


class TestDeadlineRevival:
    def test_stalled_worker_is_revived_and_results_identical(self):
        # A stopped worker holds its batches far past the deadline; the
        # watchdog must revive it, re-dispatch, and the table must not
        # move a byte.
        plan = small_plan(base_seed=20)
        jobs = list(plan)
        baseline = [job.execute() for job in jobs]

        set_default_deadline(0.3)
        backend = make_backend("warm", workers=2)
        revivals_before = GLOBAL_STATS.stall_revivals
        try:
            # Woken after 10 s at the latest, so a lost watchdog fails
            # the asserts below instead of hanging.
            with first_worker_stopped(backend, jobs, 10.0):
                outcome = backend.execute(jobs)
        finally:
            backend.shutdown(grace=2.0)

        assert outcome.results == baseline
        assert backend.stats.stall_revivals >= 1
        assert backend.stats.worker_restarts >= 1  # replaced, not waited out
        assert GLOBAL_STATS.stall_revivals > revivals_before

    def test_premature_deadline_only_costs_time_never_bytes(self):
        # A deadline far too tight for honest work forces spurious
        # revivals; correctness must survive them (the budget scales
        # with batch size, so forward progress is still made).
        plan = small_plan(base_seed=22)
        jobs = list(plan)
        baseline = [job.execute() for job in jobs]

        set_default_deadline(0.001)
        backend = make_backend("warm", workers=2)
        try:
            outcome = backend.execute(jobs)
        finally:
            backend.shutdown(grace=2.0)
        assert outcome.results == baseline


class TestSlowJobWarning:
    def test_slow_batch_warns_once_and_completes(self, caplog, monkeypatch):
        plan = small_plan(base_seed=23)
        jobs = list(plan)
        baseline = [job.execute() for job in jobs]

        monkeypatch.setenv("REPRO_SLOW_JOB", "0.1")  # warn only: no deadline
        backend = make_backend("warm", workers=2)
        try:
            with first_worker_stopped(backend, jobs, 0.5):
                with caplog.at_level("WARNING", logger="repro.backend.warm"):
                    outcome = backend.execute(jobs)
        finally:
            backend.shutdown(grace=2.0)

        assert outcome.results == baseline
        slow = re.compile(r"batch (\d+) running for ")
        warned = [
            match.group(1) for match in map(slow.match, caplog.messages)
            if match
        ]
        assert warned, caplog.text
        assert len(warned) == len(set(warned))  # one warning per batch
        assert "(threshold 0.1s)" in caplog.text
        # Warn-only mode never revives anything.
        assert backend.stats.stall_revivals == 0


class _WedgeForever:
    """Picklable job that outlives any test timeout."""

    def execute(self):
        time.sleep(600.0)
        return "never"
