"""The executor layer's central promise: serial ≡ parallel ≡ cached.

Every job carries its complete seed and boots its own machine, so the
execution strategy must not be observable in the results.  These tests
compare the rendered CSV byte-for-byte.
"""

from dataclasses import dataclass

import pytest

from repro.core.config import Mode, Pattern
from repro.core.sweep import SweepSpec
from repro.errors import ConfigurationError
from repro.backend import set_default_backend
from repro.exec import (
    Executor,
    ResultCache,
    get_executor,
    resolve_jobs,
    set_default_jobs,
)


@pytest.fixture(autouse=True)
def _no_ambient_jobs(monkeypatch):
    """Isolate worker-count resolution from the session's environment."""
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    monkeypatch.delenv("REPRO_BACKEND", raising=False)
    set_default_jobs(None)
    set_default_backend(None)
    yield
    set_default_jobs(None)
    set_default_backend(None)


def small_plan(base_seed: int = 0):
    """A real factorial sweep, big enough to split across workers."""
    return SweepSpec(
        processors=("CD",),
        infras=("pm", "pc"),
        patterns=(Pattern.START_READ, Pattern.READ_READ),
        modes=(Mode.USER, Mode.USER_KERNEL),
        repeats=2,
        base_seed=base_seed,
        io_interrupts=False,
    ).plan()


@dataclass(frozen=True)
class SquareJob:
    """A minimal generic job: execute() only, no cache_token()."""

    n: int

    def execute(self) -> int:
        return self.n * self.n


class TestDeterminism:
    def test_serial_and_parallel_tables_are_byte_identical(self, warm):
        plan = small_plan()
        serial = Executor(cache=None).run(plan)
        parallel = Executor(warm, cache=None).run(plan)
        assert serial.to_csv() == parallel.to_csv()

    def test_cached_rerun_is_byte_identical_and_all_hits(self):
        cache = ResultCache()
        plan = small_plan(base_seed=1)
        first = Executor(cache=cache).run(plan)
        assert cache.stats.stores == len(plan)
        second = Executor(cache=cache).run(plan)
        assert first.to_csv() == second.to_csv()
        assert cache.stats.hits == len(plan)

    def test_parallel_run_populates_cache_serial_run_reuses(self, warm):
        cache = ResultCache()
        plan = small_plan(base_seed=2)
        parallel = Executor(warm, cache=cache).run(plan)
        serial = Executor(cache=cache).run(plan)
        assert parallel.to_csv() == serial.to_csv()
        assert cache.stats.misses == len(plan)
        assert cache.stats.hits == len(plan)


class TestExecutorMechanics:
    def test_generic_jobs_without_cache_token(self):
        jobs = [SquareJob(n) for n in range(12)]
        assert Executor(cache=ResultCache()).map(jobs) == [
            n * n for n in range(12)
        ]

    def test_parallel_maps_generic_jobs(self, warm):
        jobs = [SquareJob(n) for n in range(20)]
        executor = Executor(warm, cache=None)
        assert executor.map(jobs) == [n * n for n in range(20)]


class TestWorkerResolution:
    def test_default_is_serial(self):
        assert resolve_jobs() == 1
        executor = get_executor()
        assert isinstance(executor, Executor)
        assert executor.backend.name == "inline"

    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "8")
        set_default_jobs(2)
        assert resolve_jobs(4) == 4

    def test_set_default_jobs_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "8")
        set_default_jobs(2)
        assert resolve_jobs() == 2

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert resolve_jobs() == 3
        executor = get_executor()
        # Multi-worker runs default to the warm backend.
        assert isinstance(executor, Executor)
        assert executor.backend.name == "warm"

    def test_invalid_values_rejected(self, monkeypatch):
        with pytest.raises(ConfigurationError):
            resolve_jobs(0)
        with pytest.raises(ConfigurationError):
            set_default_jobs(-1)
        monkeypatch.setenv("REPRO_JOBS", "many")
        with pytest.raises(ConfigurationError):
            resolve_jobs()
        monkeypatch.setenv("REPRO_JOBS", "0")
        with pytest.raises(ConfigurationError):
            resolve_jobs()

    def test_get_executor_defaults_to_warm(self):
        executor = get_executor(jobs=4)
        assert isinstance(executor, Executor)
        assert executor.backend.name == "warm"
        assert executor.backend.max_workers == 4
