"""The executor layer's central promise: cached ≡ uncached.

Every job carries its complete seed and runs on a machine in that
seed's boot state, so the result cache must not be observable in the
results.  These tests compare the rendered CSV byte-for-byte.  The
worker count that ``reproduce all --jobs`` splits artifacts over is
resolved by the CLI; its precedence is pinned here too.
"""

from dataclasses import dataclass, field

import pytest

from repro.cli import _worker_count, resolve_jobs
from repro.core.config import Mode, Pattern
from repro.core.sweep import SweepSpec
from repro.errors import ConfigurationError
from repro.exec import Executor, ResultCache


@pytest.fixture(autouse=True)
def _no_ambient_jobs(monkeypatch):
    """Isolate worker-count resolution from the session's environment."""
    monkeypatch.delenv("REPRO_JOBS", raising=False)


def small_plan(base_seed: int = 0):
    """A real factorial sweep over two infrastructures and modes."""
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


@dataclass(frozen=True)
class CountedJob:
    """A cacheable job that logs every run."""

    n: int
    runs: list = field(compare=False, hash=False)

    def execute(self) -> int:
        self.runs.append(self.n)
        return self.n

    def cache_token(self) -> str:
        return f"counted-{self.n}"


class TestDeterminism:
    def test_cached_rerun_is_byte_identical_and_all_hits(self):
        cache = ResultCache()
        plan = small_plan(base_seed=1)
        first = Executor(cache=cache).run(plan)
        assert cache.stats.stores == len(plan)
        second = Executor(cache=cache).run(plan)
        assert first.to_csv() == second.to_csv()
        assert cache.stats.hits == len(plan)


class TestExecutorMechanics:
    def test_generic_jobs_without_cache_token(self):
        jobs = [SquareJob(n) for n in range(12)]
        assert Executor(cache=ResultCache()).map(jobs) == [
            n * n for n in range(12)
        ]

    def test_a_job_repeated_in_one_call_runs_each_time(self):
        # Every job is looked up before any runs, so the cache line of
        # a plan that repeats a job counts a miss for each repeat.
        cache, runs = ResultCache(), []
        jobs = [CountedJob(1, runs), CountedJob(1, runs), CountedJob(2, runs)]
        assert Executor(cache=cache).map(jobs) == [1, 1, 2]
        assert runs == [1, 1, 2]
        assert (cache.stats.hits, cache.stats.misses) == (0, 3)
        assert Executor(cache=cache).map(jobs) == [1, 1, 2]
        assert runs == [1, 1, 2]
        assert (cache.stats.hits, cache.stats.misses) == (3, 3)


class TestWorkerResolution:
    def test_default_is_serial(self):
        assert resolve_jobs(None) == 1
        assert _worker_count(None, None) == 1

    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "8")
        assert resolve_jobs(4) == 4

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert resolve_jobs(None) == 3
        # More than one worker forks artifact workers unless the
        # inline backend is asked for.
        assert _worker_count(None, None) == 3
        assert _worker_count(None, "warm") == 3
        assert _worker_count(None, "inline") == 1

    def test_invalid_values_rejected(self, monkeypatch):
        with pytest.raises(ConfigurationError):
            resolve_jobs(0)
        with pytest.raises(ConfigurationError):
            resolve_jobs(-1)
        monkeypatch.setenv("REPRO_JOBS", "many")
        with pytest.raises(ConfigurationError):
            resolve_jobs(None)
        monkeypatch.setenv("REPRO_JOBS", "0")
        with pytest.raises(ConfigurationError):
            resolve_jobs(None)
