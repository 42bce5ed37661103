"""The backend contract: where a job runs must never be observable.

Every job carries its complete seed and boots its own machine, so the
inline and warm backends must produce byte-identical tables for
the same plan — the backend choice may only move wall-clock time and
``repro_backend_*`` accounting.
"""

import pytest

from repro.backend import (
    AdaptiveBatchSizer,
    make_backend,
    set_default_backend,
    warm_available,
)
from repro.core.config import Mode, Pattern
from repro.core.sweep import SweepSpec
from repro.exec import Executor, set_default_jobs

needs_fork = pytest.mark.skipif(
    not warm_available(), reason="warm backend needs the fork start method"
)


@pytest.fixture(autouse=True)
def clean_backend_state(monkeypatch):
    monkeypatch.delenv("REPRO_BACKEND", raising=False)
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    monkeypatch.delenv("REPRO_BATCH", raising=False)
    set_default_backend(None)
    set_default_jobs(None)
    yield
    set_default_backend(None)
    set_default_jobs(None)


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


def run_on(backend_name: str, plan, **backend_kwargs) -> str:
    backend = make_backend(backend_name, **backend_kwargs)
    try:
        table = Executor(backend, cache=None).run(plan)
    finally:
        backend.shutdown(grace=2.0)
    return table.to_csv()


class TestEquivalence:
    @needs_fork
    def test_warm_matches_inline_byte_for_byte(self):
        plan = small_plan()
        assert run_on("warm", plan, workers=2) == run_on("inline", plan)

    @needs_fork
    def test_warm_reuses_its_fleet_across_plans(self):
        backend = make_backend("warm", workers=2)
        try:
            executor = Executor(backend, cache=None)
            executor.run(small_plan(base_seed=2))
            pids_first = sorted(backend.worker_pids)
            executor.run(small_plan(base_seed=3))
            executor.run(small_plan(base_seed=2))
            assert sorted(backend.worker_pids) == pids_first
            assert backend.stats.workers_spawned == 2
            assert backend.stats.worker_restarts == 0
        finally:
            backend.shutdown(grace=2.0)


class TestAccounting:
    def test_inline_counts_jobs_and_batches(self):
        plan = small_plan(base_seed=4)
        backend = make_backend("inline")
        Executor(backend, cache=None).run(plan)
        assert backend.stats.jobs == len(plan)
        assert backend.stats.batches == 1  # inline runs one batch

    def test_inline_ignores_the_cap(self):
        # Splitting buys nothing in-process: one dispatch unit, always.
        plan = small_plan(base_seed=5)
        backend = make_backend("inline", batch_cap=5)
        Executor(backend, cache=None).run(plan)
        assert backend.stats.batches == 1

    @needs_fork
    def test_configured_cap_pins_the_batch_count(self):
        plan = small_plan(base_seed=5)
        backend = make_backend("warm", workers=2, batch_cap=5)
        try:
            Executor(backend, cache=None).run(plan)
        finally:
            backend.shutdown(grace=2.0)
        expected = -(-len(plan) // 5)  # ceil
        assert backend.stats.batches == expected

    @needs_fork
    def test_warm_preloads_every_snapshot(self):
        # Template registration pre-populates each worker's snapshot
        # store, so every machine boot of the plan is absorbed.
        plan = small_plan(base_seed=6)
        backend = make_backend("warm", workers=2)
        try:
            Executor(backend, cache=None).run(plan)
            assert backend.stats.snapshot_hits == len(plan)
            assert backend.stats.frames_sent >= backend.stats.batches
            assert backend.stats.frame_bytes_sent > 0
            assert sum(backend.worker_batches.values()) == (
                backend.stats.batches
            )
        finally:
            backend.shutdown(grace=2.0)


class TestAdaptiveBatchSizer:
    def test_configured_cap_is_returned_verbatim(self):
        sizer = AdaptiveBatchSizer()
        sizer.record(10, 10.0)  # measured cost must not override the cap
        assert sizer.next_size(1000, workers=4, cap=32) == 32

    def test_heuristic_before_any_measurement(self):
        sizer = AdaptiveBatchSizer()
        # Four batches per worker: 64 pending on 2 workers -> 8 each.
        assert sizer.next_size(64, workers=2) == 8
        assert sizer.next_size(1, workers=8) == 1

    def test_cheap_jobs_grow_batches_to_the_latency_target(self):
        sizer = AdaptiveBatchSizer()
        sizer.record(100, 0.0001)  # 1 microsecond per job
        assert sizer.next_size(10**6, workers=2) == sizer.AUTO_CAP

    def test_slow_jobs_shrink_batches(self):
        sizer = AdaptiveBatchSizer()
        sizer.record(1, 1.0)  # one second per job
        assert sizer.next_size(1000, workers=2) == 1

    def test_record_folds_an_ema(self):
        sizer = AdaptiveBatchSizer()
        sizer.record(1, 1.0)
        assert sizer.per_job_seconds == 1.0
        sizer.record(1, 0.0)
        assert sizer.per_job_seconds == pytest.approx(0.5)

    def test_bogus_measurements_ignored(self):
        sizer = AdaptiveBatchSizer()
        sizer.record(0, 1.0)
        sizer.record(5, -1.0)
        assert sizer.per_job_seconds is None
