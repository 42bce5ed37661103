"""Batched dispatch: resolution chain, counters, and result identity.

Batching is pure plumbing — any batch size must give byte-identical
tables, only the pickling/IPC accounting may move.
"""

import pytest

from repro.backend import AdaptiveBatchSizer
from repro.core.config import Mode, Pattern
from repro.core.sweep import SweepSpec
from repro.errors import ConfigurationError
from repro.exec import Executor
from repro.exec.executor import (
    resolve_batch_cap,
    set_default_batch,
    set_default_jobs,
)


@pytest.fixture(autouse=True)
def clean_defaults():
    set_default_jobs(None)
    set_default_batch(None)
    yield
    set_default_jobs(None)
    set_default_batch(None)


def small_sweep(base_seed=0):
    return SweepSpec(
        processors=("CD",),
        infras=("pm", "pc"),
        patterns=(Pattern.START_READ, Pattern.READ_READ),
        modes=(Mode.USER, Mode.USER_KERNEL),
        repeats=2,
        base_seed=base_seed,
        io_interrupts=False,
    ).plan()


class TestBatchSizeResolution:
    def test_explicit_wins(self):
        set_default_batch(7)
        assert resolve_batch_cap(3) == 3

    def test_default_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BATCH", "9")
        set_default_batch(7)
        assert resolve_batch_cap() == 7

    def test_env_beats_auto(self, monkeypatch):
        monkeypatch.setenv("REPRO_BATCH", "9")
        assert resolve_batch_cap() == 9

    def test_auto_targets_four_batches_per_worker(self):
        # No cap configured: the sizer picks about four batches per worker.
        assert resolve_batch_cap() is None
        sizer = AdaptiveBatchSizer()
        assert sizer.next_size(100, workers=4) == 7
        assert sizer.next_size(8, workers=4) == 1

    def test_auto_is_capped(self):
        assert resolve_batch_cap() is None
        assert AdaptiveBatchSizer().next_size(100_000, workers=2) == 64

    def test_non_positive_rejected(self):
        with pytest.raises(ConfigurationError, match="batch size"):
            resolve_batch_cap(0)
        with pytest.raises(ConfigurationError, match="batch size"):
            set_default_batch(-1)
        with pytest.raises(ConfigurationError, match="batch size"):
            Executor(batch_size=0)

    def test_bad_env_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_BATCH", "many")
        with pytest.raises(ConfigurationError, match="REPRO_BATCH"):
            resolve_batch_cap()
        monkeypatch.setenv("REPRO_BATCH", "0")
        with pytest.raises(ConfigurationError, match="REPRO_BATCH"):
            resolve_batch_cap()


class TestBatchedResults:
    def test_any_batch_size_matches_serial(self, warm):
        plan = small_sweep()
        serial = Executor(cache=None).run(plan).to_csv()
        for batch_size in (1, 3, 64):
            parallel = Executor(
                warm, cache=None, batch_size=batch_size
            ).run(plan).to_csv()
            assert parallel == serial


class TestDispatchCounters:
    def test_parallel_counts_batches(self, warm):
        plan = small_sweep(base_seed=2)
        executor = Executor(warm, cache=None, batch_size=3)
        executor.run(plan)
        expected = -(-len(plan) // 3)  # ceil division
        assert executor.stats.batches == expected
        assert executor.stats.executed == len(plan)

    def test_workers_ship_snapshot_hits_home(self, warm):
        plan = small_sweep(base_seed=3)
        executor = Executor(warm, cache=None, batch_size=4)
        executor.run(plan)
        # Every job boots one machine inside a worker; the boots its
        # snapshot store absorbed come home with each batch.
        assert executor.stats.snapshot_hits > 0
        assert executor.stats.snapshot_hits <= len(plan)

    def test_serial_counts_one_batch_and_local_hits(self):
        plan = small_sweep(base_seed=4)
        executor = Executor(cache=None)
        executor.run(plan)
        assert executor.stats.batches == 1
        assert executor.stats.snapshot_hits > 0
