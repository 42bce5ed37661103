"""Golden outputs under faults the tests inject: no fault moves a byte.

The acceptance bar for every recovery path: ``reproduce`` emits output
byte-identical to the committed goldens while the test SIGKILLs warm
workers mid-batch, flips a byte of a result frame on its way into the
coordinator, or stops a worker for a moment — because every recovery
path re-executes jobs from their own seeds.

Each fault comes from the test itself, through a signal or a wrapper
that ``monkeypatch`` undoes when the test ends; the product has no
fault hooks.  Each case also asserts that its fault fired and which
recovery answered it, so a fault that silently stops firing fails.
"""

import itertools
import os
import signal
import struct
import threading
from pathlib import Path

import pytest

from repro.backend import (
    GLOBAL_STATS,
    WarmBackend,
    frames,
    set_default_backend,
    set_default_deadline,
    set_default_jobs,
    warm_available,
)
from repro.cli import main
from repro.exec import set_default_batch

GOLDEN = Path(__file__).parent / "golden"

pytestmark = pytest.mark.skipif(
    not warm_available(), reason="the faults target the warm backend"
)


@pytest.fixture(autouse=True)
def clean_defaults():
    # A fresh result cache per test: with a warm cache nothing would
    # dispatch and the faults would never be exercised.
    from repro.exec import configure_default_cache

    configure_default_cache(enabled=True)
    yield
    configure_default_cache(enabled=True)
    set_default_jobs(None)
    set_default_batch(None)
    set_default_backend(None)
    set_default_deadline(None)


@pytest.fixture(autouse=True)
def fail_instead_of_hanging():
    """A lost recovery path leaves the coordinator waiting on a dead or
    stopped worker forever; turn that into a failure."""
    def hung(signum, frame):
        raise TimeoutError("the run did not finish within 120 s")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(120)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def reproduce(capsys, artifact, *flags):
    assert main(["reproduce", artifact, *flags]) == 0
    return capsys.readouterr().out


def reproduce_warm(capsys, artifact, *flags):
    return reproduce(
        capsys, artifact, "--jobs", "2", "--backend", "warm", *flags
    )


def _holder(backend, batch_id):
    """The worker a just-submitted batch was dispatched to."""
    return next(w for w in backend._workers if batch_id in w.inflight)


def kill_every_third_batch(monkeypatch):
    """SIGKILL the worker holding every third batch right after submit."""
    submit = WarmBackend.submit
    batches = itertools.count(1)

    def submit_then_kill(self, jobs):
        batch_id = submit(self, jobs)
        if next(batches) % 3 == 0:
            os.kill(_holder(self, batch_id).pid, signal.SIGKILL)
        return batch_id

    monkeypatch.setattr(WarmBackend, "submit", submit_then_kill)


def corrupt_first_results_frame(monkeypatch):
    """Flip the last payload byte of the first result frame read.

    Only a chunk that starts on a frame boundary (an empty reader
    buffer) is walked, so the flip always lands inside a RESULTS
    payload, never in a header.  Returns the list of flipped offsets.
    """
    feed = frames.FrameReader.feed
    flipped = []

    def corrupting_feed(self, data):
        offset = len(data) if flipped or self._buffer else 0
        while offset + frames.HEADER_SIZE <= len(data):
            length, kind = struct.unpack_from("<IB", data, offset)
            end = offset + frames.HEADER_SIZE + length
            if kind == frames.RESULTS and end <= len(data):
                damaged = bytearray(data)
                damaged[end - 1] ^= 0xFF
                flipped.append(end - 1)
                return feed(self, bytes(damaged))
            offset = end
        return feed(self, data)

    monkeypatch.setattr(frames.FrameReader, "feed", corrupting_feed)
    return flipped


def stop_second_batch_briefly(monkeypatch):
    """SIGSTOP the worker holding the second batch; SIGCONT it 0.2 s
    later.  Returns the list of started timers."""
    submit = WarmBackend.submit
    batches = itertools.count(1)
    timers = []

    def submit_then_stop(self, jobs):
        batch_id = submit(self, jobs)
        if next(batches) == 2:
            pid = _holder(self, batch_id).pid
            os.kill(pid, signal.SIGSTOP)
            timer = threading.Timer(0.2, os.kill, (pid, signal.SIGCONT))
            timer.start()
            timers.append(timer)
        return batch_id

    monkeypatch.setattr(WarmBackend, "submit", submit_then_stop)
    return timers


# -- the fault families: each runs one artifact and checks its recovery ---

def worker_kill(artifact, capsys, caplog, monkeypatch):
    kill_every_third_batch(monkeypatch)
    restarts = GLOBAL_STATS.worker_restarts
    out = reproduce_warm(capsys, artifact)
    assert GLOBAL_STATS.worker_restarts > restarts  # EOF revived them
    return out


def frame_corrupt(artifact, capsys, caplog, monkeypatch):
    flipped = corrupt_first_results_frame(monkeypatch)
    restarts = GLOBAL_STATS.worker_restarts
    with caplog.at_level("WARNING", logger="repro.backend.warm"):
        out = reproduce_warm(capsys, artifact)
    assert len(flipped) == 1
    assert "frame checksum mismatch" in caplog.text
    assert GLOBAL_STATS.worker_restarts > restarts
    return out


def slow_worker(artifact, capsys, caplog, monkeypatch):
    timers = stop_second_batch_briefly(monkeypatch)
    try:
        out = reproduce_warm(capsys, artifact)
    finally:
        for timer in timers:
            timer.join()
    assert len(timers) == 1
    return out


FAULTS = {
    "worker-kill": worker_kill,
    "frame-corrupt": frame_corrupt,
    "slow-worker": slow_worker,
}


class TestChaosGoldenMatrix:
    @pytest.mark.parametrize("fault", FAULTS)
    def test_figure4_survives_byte_identically(
        self, capsys, caplog, monkeypatch, fault
    ):
        golden = (GOLDEN / "figure4.txt").read_text()
        out = FAULTS[fault]("figure4", capsys, caplog, monkeypatch)
        assert out == golden

    @pytest.mark.parametrize("fault", FAULTS)
    def test_figure9_survives_byte_identically(
        self, capsys, caplog, monkeypatch, fault
    ):
        golden = (GOLDEN / "figure9.txt").read_text()
        out = FAULTS[fault]("figure9", capsys, caplog, monkeypatch)
        assert out == golden

