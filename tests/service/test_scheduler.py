"""Scheduler behaviour: dedup, lifecycle, cancellation, shutdown,
the slow-job watchdog and per-artifact durations."""

import asyncio
import io
import json
import threading

import pytest

from repro.errors import ReproError
from repro.obs.logging import NULL_LOGGER, StructuredLogger
from repro.obs.metrics import build_unified_registry
from repro.service.queue import JobQueue, QueueFull
from repro.service.scheduler import (
    JobState,
    Scheduler,
    SchedulerClosed,
    artifact_job,
    plan_job,
)


def run_async(coro):
    return asyncio.run(coro)


async def wait_for(predicate, timeout=10.0, interval=0.005):
    deadline = asyncio.get_running_loop().time() + timeout
    while not predicate():
        if asyncio.get_running_loop().time() > deadline:
            raise AssertionError("condition not reached in time")
        await asyncio.sleep(interval)


class GatedJob:
    """A job body that blocks until the test releases it."""

    def __init__(self, payload=None):
        self.started = threading.Event()
        self.release = threading.Event()
        self.calls = 0
        self.payload = payload or {"ok": True}

    def __call__(self):
        self.calls += 1
        self.started.set()
        assert self.release.wait(timeout=30), "test never released the job"
        return self.payload


class TestDedup:
    def test_identical_inflight_submissions_share_one_execution(self):
        async def scenario():
            scheduler = Scheduler(queue=JobQueue(8), workers=1)
            scheduler.start()
            job = GatedJob(payload={"n": 1})
            first, coalesced_first = scheduler.submit(
                token="tok", kind="plan", description="gated", run=job
            )
            assert not coalesced_first
            await wait_for(job.started.is_set)  # now RUNNING
            second, coalesced_second = scheduler.submit(
                token="tok", kind="plan", description="gated", run=job
            )
            assert coalesced_second
            assert second is first
            assert first.coalesced == 1
            job.release.set()
            await asyncio.wait_for(first.done_event.wait(), timeout=10)
            assert first.state is JobState.DONE
            assert first.payload == {"n": 1}
            assert job.calls == 1  # the plan executed exactly once
            assert scheduler.stats.executed == 1
            assert scheduler.stats.coalesced == 1
            assert scheduler.stats.submitted == 1
            await scheduler.shutdown(grace=5)

        run_async(scenario())

    def test_finished_jobs_do_not_absorb_new_submissions(self):
        async def scenario():
            scheduler = Scheduler(queue=JobQueue(8), workers=1)
            scheduler.start()
            first, _ = scheduler.submit(
                token="tok", kind="plan", description="fast",
                run=lambda: {"n": 1},
            )
            await asyncio.wait_for(first.done_event.wait(), timeout=10)
            second, coalesced = scheduler.submit(
                token="tok", kind="plan", description="fast",
                run=lambda: {"n": 2},
            )
            assert not coalesced
            assert second is not first
            await scheduler.shutdown(grace=5)

        run_async(scenario())


class TestLifecycle:
    def test_failure_is_recorded_not_raised(self):
        async def scenario():
            scheduler = Scheduler(queue=JobQueue(8), workers=1)
            scheduler.start()

            def explode():
                raise ValueError("boom")

            record, _ = scheduler.submit(
                token="bad", kind="plan", description="bad", run=explode
            )
            await asyncio.wait_for(record.done_event.wait(), timeout=10)
            assert record.state is JobState.FAILED
            assert "ValueError: boom" in record.error
            assert scheduler.stats.failed == 1
            await scheduler.shutdown(grace=5)

        run_async(scenario())

    def test_cancel_queued_job(self):
        async def scenario():
            scheduler = Scheduler(queue=JobQueue(8), workers=1)
            scheduler.start()
            gated = GatedJob()
            busy, _ = scheduler.submit(
                token="busy", kind="plan", description="busy", run=gated
            )
            await wait_for(gated.started.is_set)
            queued, _ = scheduler.submit(
                token="victim", kind="plan", description="victim",
                run=lambda: {"never": True},
            )
            cancelled = scheduler.cancel(queued.id)
            assert cancelled.state is JobState.CANCELLED
            assert scheduler.queue.depth == 0
            # a running job cannot be cancelled
            with pytest.raises(ReproError):
                scheduler.cancel(busy.id)
            assert scheduler.cancel("job-nonexistent") is None
            gated.release.set()
            await scheduler.shutdown(grace=5)

        run_async(scenario())

    def test_backpressure_propagates(self):
        async def scenario():
            scheduler = Scheduler(queue=JobQueue(max_depth=1), workers=1)
            scheduler.start()
            gated = GatedJob()
            scheduler.submit(
                token="t0", kind="plan", description="running", run=gated
            )
            await wait_for(gated.started.is_set)
            scheduler.submit(
                token="t1", kind="plan", description="fills the queue",
                run=lambda: {},
            )
            with pytest.raises(QueueFull) as err:
                scheduler.submit(
                    token="t2", kind="plan", description="rejected",
                    run=lambda: {},
                )
            assert err.value.retry_after > 0
            gated.release.set()
            await scheduler.shutdown(grace=5)

        run_async(scenario())


class TestGracefulShutdown:
    def test_running_job_finishes_and_queued_job_is_cancelled(self):
        async def scenario():
            scheduler = Scheduler(queue=JobQueue(8), workers=1)
            scheduler.start()
            gated = GatedJob(payload={"survived": True})
            running, _ = scheduler.submit(
                token="running", kind="plan", description="mid-job",
                run=gated,
            )
            await wait_for(gated.started.is_set)
            queued, _ = scheduler.submit(
                token="queued", kind="plan", description="never runs",
                run=lambda: {"never": True},
            )
            shutdown = asyncio.create_task(scheduler.shutdown(grace=30))
            await wait_for(lambda: queued.state is JobState.CANCELLED)
            assert running.state is JobState.RUNNING  # still mid-job
            with pytest.raises(SchedulerClosed):
                scheduler.submit(
                    token="late", kind="plan", description="late",
                    run=lambda: {},
                )
            gated.release.set()
            await asyncio.wait_for(shutdown, timeout=10)
            assert running.state is JobState.DONE
            assert running.payload == {"survived": True}
            assert queued.error == "server shutdown"
            assert scheduler.stats.cancelled == 1

        run_async(scenario())


class TestJobBuilders:
    def test_artifact_job_token_is_stable(self):
        token_a, describe, _ = artifact_job("figure4", repeats=1, seed=0)
        token_b, _, _ = artifact_job("figure4", repeats=1, seed=0)
        token_c, _, _ = artifact_job("figure4", repeats=1, seed=1)
        assert token_a == token_b
        assert token_a != token_c
        assert "figure4" in describe

    def test_artifact_job_rejects_unknown_artifact(self):
        with pytest.raises(ReproError):
            artifact_job("figure99")

    def test_plan_job_runs_a_declarative_plan(self):
        plan = {
            "jobs": [
                {
                    "config": {
                        "processor": "CD", "infra": "pc",
                        "pattern": "rr", "mode": "user", "seed": 3,
                    },
                    "benchmark": {"kind": "loop", "args": [1000]},
                    "tags": {"case": "demo"},
                },
            ]
        }
        token_a, describe, run = plan_job(plan)
        token_b, _, _ = plan_job(plan)
        assert token_a == token_b  # same declarative plan, same address
        assert "1 job(s)" in describe
        payload = run()
        assert payload["columns"]
        [row] = payload["rows"]
        assert row["case"] == "demo"
        assert row["expected"] == 3 * 1000 + 1  # the 1 + 3*MAX loop model

    def test_plan_job_validates_at_admission(self):
        with pytest.raises(ReproError):
            plan_job({"jobs": []})
        with pytest.raises(ReproError):
            plan_job({"jobs": [{"config": {"processor": "Z80"}}]})


class TestSlowJobWatchdog:
    def test_slow_job_warned_once_with_metric(self):
        async def scenario():
            stream = io.StringIO()
            registry = build_unified_registry()
            scheduler = Scheduler(
                queue=JobQueue(4), workers=1, registry=registry,
                logger=StructuredLogger(stream=stream),
                slow_job_threshold=0.01,
            )
            scheduler.start()
            job = GatedJob()
            record, _ = scheduler.submit(
                token="tok", kind="plan", description="slow one", run=job
            )
            await wait_for(job.started.is_set)
            await asyncio.sleep(0.02)
            assert scheduler.check_slow_jobs() == 1
            assert scheduler.check_slow_jobs() == 0  # warn once per job
            job.release.set()
            await wait_for(lambda: record.state is JobState.DONE)
            await scheduler.shutdown(grace=5)
            return stream, registry, record

        stream, registry, record = run_async(scenario())
        warnings = [
            json.loads(line) for line in stream.getvalue().splitlines()
            if json.loads(line)["event"] == "job.slow"
        ]
        assert len(warnings) == 1
        assert warnings[0]["level"] == "warning"
        assert warnings[0]["job"] == record.id
        assert warnings[0]["run_seconds"] >= 0.01
        assert warnings[0]["threshold_seconds"] == 0.01
        assert registry.get("repro_slow_job_warnings_total").value == 1

    def test_fast_jobs_never_warned(self):
        async def scenario():
            scheduler = Scheduler(
                queue=JobQueue(4), workers=1,
                logger=NULL_LOGGER, slow_job_threshold=60.0,
            )
            scheduler.start()
            record, _ = scheduler.submit(
                token="tok", kind="plan", description="fast",
                run=lambda: {"ok": True},
            )
            await wait_for(lambda: record.state is JobState.DONE)
            assert scheduler.check_slow_jobs() == 0
            await scheduler.shutdown(grace=5)

        run_async(scenario())

    def test_watchdog_task_lifecycle(self):
        async def scenario():
            scheduler = Scheduler(
                queue=JobQueue(4), workers=1,
                logger=NULL_LOGGER, slow_job_threshold=30.0,
            )
            scheduler.start()
            assert scheduler._watchdog_task is not None
            await scheduler.shutdown(grace=5)
            assert scheduler._watchdog_task is None

            disabled = Scheduler(
                queue=JobQueue(4), workers=1,
                logger=NULL_LOGGER, slow_job_threshold=None,
            )
            disabled.start()
            assert disabled._watchdog_task is None
            await disabled.shutdown(grace=5)

        run_async(scenario())

    def test_invalid_threshold_rejected(self):
        with pytest.raises(ValueError):
            Scheduler(slow_job_threshold=0)
        with pytest.raises(ValueError):
            Scheduler(slow_job_threshold=-1.0)


class TestArtifactDurations:
    def test_artifact_duration_family_observes_completions(self):
        async def scenario():
            registry = build_unified_registry()
            scheduler = Scheduler(
                queue=JobQueue(4), workers=1, registry=registry,
                logger=NULL_LOGGER,
                slow_job_threshold=None,
            )
            scheduler.start()
            record, _ = scheduler.submit(
                token="tok", kind="artifact", description="d",
                run=lambda: {"ok": True}, artifact="figure4",
            )
            await wait_for(lambda: record.state is JobState.DONE)
            await scheduler.shutdown(grace=5)
            return registry

        registry = run_async(scenario())
        family = registry.get("repro_artifact_duration_seconds")
        assert family.labels("figure4").count == 1
        assert 'artifact="figure4"' in registry.render()
