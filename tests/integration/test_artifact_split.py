"""How ``reproduce all --jobs N`` splits the artifacts, on stand-ins.

``repro.cli.ALL_EXPERIMENTS`` is replaced by a few stand-in artifact ids
and ``repro.cli.run_artifact`` by a stand-in that returns a given text
and notes, moves the default cache's counts by a given amount, and logs
the pid it ran in to a file that the workers append to as well.  So a
case forks real workers over real pipes in milliseconds, and can give
the artifacts any number, size or fault.

Whatever the split and whatever goes wrong in a worker, the output must
be a serial run's: worker *i* renders positions *i*, *i* + N, …; what
no worker delivered runs in this process, in order; an artifact that
raises in a worker raises here; the ``cache:`` line sums every
artifact's counts; and no worker outlives the command.  Every case runs
under an alarm, so a parent that stopped draining its pipes fails the
test instead of hanging the suite.
"""

from __future__ import annotations

import os
import random
import select
import signal
import time
from dataclasses import dataclass

import pytest

from repro import cli
from repro.cli import main
from repro.exec import cache as cache_mod

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")

#: Seconds any one case may take before its alarm fails it.
TIME_LIMIT = 60


class Broken(Exception):
    """Raised by a stand-in artifact."""


@pytest.fixture(autouse=True)
def _fresh_process_state(monkeypatch):
    """An empty default cache, no ambient worker count, and an alarm."""
    monkeypatch.setattr(cache_mod, "_default", cache_mod.ResultCache())
    monkeypatch.delenv("REPRO_JOBS", raising=False)

    def expire(signum, frame):
        raise TimeoutError(f"case ran over {TIME_LIMIT} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(TIME_LIMIT)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


@dataclass(frozen=True)
class Rendered:
    """What the stand-in ``run_artifact`` returns."""

    text: str
    notes: tuple[str, ...] = ()

    def report(self) -> str:
        return self.text


@dataclass
class Artifacts:
    """Stand-in artifacts: each one's text, notes and cache counts."""

    texts: list[str]
    notes: list[tuple[str, ...]]
    counts: list[tuple[int, int]]

    @classmethod
    def plain(cls, count: int, text: str = "") -> "Artifacts":
        return cls(
            texts=[f"== a{i}: stand-in ==\n{text}" for i in range(count)],
            notes=[(f"n{i}",) if i % 2 else () for i in range(count)],
            counts=[(i, 2 * i + 1) for i in range(count)],
        )

    @property
    def names(self) -> list[str]:
        return [f"a{i}" for i in range(len(self.texts))]

    def serial(self, upto: int | None = None) -> str:
        """What a serial run prints for the first ``upto`` artifacts."""
        return "".join(
            self.texts[i] + "\n"
            + "".join(f"note: {note}\n" for note in self.notes[i]) + "\n"
            for i in range(len(self.texts))[:upto]
        )

    def cache_line(self) -> str:
        hits = sum(h for h, _ in self.counts)
        misses = sum(m for _, m in self.counts)
        return f"cache: {hits} hits / {misses} misses\n"


class Run:
    """The stand-ins installed for one case, and the log of their calls."""

    def __init__(self, monkeypatch, tmp_path, artifacts, fault=None):
        self.artifacts = artifacts
        self.pid = os.getpid()
        self.log = tmp_path / "calls"
        self.log.touch()
        names = artifacts.names
        monkeypatch.setattr(cli, "ALL_EXPERIMENTS", tuple(names))

        def run_artifact(artifact, *, repeats, seed):
            position = names.index(artifact)
            with open(self.log, "a", encoding="utf-8") as out:
                out.write(f"{os.getpid()} {position}\n")
            if fault is not None:
                fault(position, os.getpid() != self.pid)
            hits, misses = artifacts.counts[position]
            cache = cache_mod.default_cache()
            if cache is not None:
                cache.stats.hits += hits
                cache.stats.misses += misses
            return Rendered(artifacts.texts[position], artifacts.notes[position])

        monkeypatch.setattr(cli, "run_artifact", run_artifact)

    def calls(self) -> list[tuple[int, int]]:
        return [(int(pid), int(position)) for pid, position in
                (line.split() for line in self.log.read_text().splitlines())]

    def here(self) -> list[int]:
        """The positions this process rendered, in order."""
        return [position for pid, position in self.calls() if pid == self.pid]

    def shares(self) -> list[list[int]]:
        """The positions each worker rendered, by its first position."""
        by_pid: dict[int, list[int]] = {}
        for pid, position in self.calls():
            if pid != self.pid:
                by_pid.setdefault(pid, []).append(position)
        return sorted(by_pid.values())


def killed_at(victim):
    """A fault: the worker that reaches ``victim`` dies on SIGKILL."""
    def fault(position, in_worker):
        if position == victim and in_worker:
            os.kill(os.getpid(), signal.SIGKILL)
    return fault


def raises_at(victim):
    """A fault: ``victim`` raises, wherever it runs."""
    def fault(position, in_worker):
        if position == victim:
            raise Broken(position)
    return fault


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def reproduce_all(*flags):
    return main(["reproduce", "all", *flags])


@pytest.mark.parametrize("count", range(1, 9))
@pytest.mark.parametrize("workers", range(2, 7))
def test_worker_i_renders_every_nth_artifact(
        monkeypatch, tmp_path, capfd, workers, count):
    artifacts = Artifacts.plain(count)
    run = Run(monkeypatch, tmp_path, artifacts)
    assert reproduce_all("--jobs", str(workers)) == 0
    captured = capfd.readouterr()
    assert captured.out == artifacts.serial()
    assert captured.err == artifacts.cache_line()
    if count == 1:  # one artifact runs in one process
        assert run.here() == [0] and run.shares() == []
    else:
        assert run.here() == []
        assert run.shares() == [
            list(range(first, count, workers))
            for first in range(min(workers, count))
        ]
    assert_no_child_left()


@pytest.mark.parametrize("victim", range(7))
@pytest.mark.parametrize("workers", [2, 3])
def test_a_worker_killed_at_any_artifact_changes_no_byte(
        monkeypatch, tmp_path, capfd, workers, victim):
    artifacts = Artifacts.plain(7)
    run = Run(monkeypatch, tmp_path, artifacts, killed_at(victim))
    assert reproduce_all("--jobs", str(workers)) == 0
    captured = capfd.readouterr()
    assert captured.out == artifacts.serial()
    assert captured.err == artifacts.cache_line()
    # This process rendered exactly what the dead worker never sent: the
    # artifact it died on and the rest of its share.
    assert run.here() == list(range(victim, 7, workers))
    assert_no_child_left()


@pytest.mark.parametrize("victim", range(7))
@pytest.mark.parametrize("workers", [2, 3])
def test_an_artifact_raising_in_a_worker_raises_here(
        monkeypatch, tmp_path, capfd, workers, victim):
    artifacts = Artifacts.plain(7)
    run = Run(monkeypatch, tmp_path, artifacts, raises_at(victim))
    with pytest.raises(Broken):
        reproduce_all("--jobs", str(workers))
    captured = capfd.readouterr()
    # What a serial run prints before the artifact that raises, and
    # nothing from the worker: no traceback, no cache line.
    assert captured.out == artifacts.serial(victim)
    assert captured.err == ""
    assert run.here() == [victim]
    assert_no_child_left()


@pytest.mark.parametrize("size", [0, 1, 4095, 65536, 65537, 1 << 20, 2 << 20])
def test_texts_larger_than_a_pipe_arrive_whole(
        monkeypatch, tmp_path, capfd, size):
    # Two-byte characters, so a text's bytes are twice its length.
    artifacts = Artifacts.plain(5, "é" * (size // 2) + "x" * (size % 2))
    run = Run(monkeypatch, tmp_path, artifacts)
    assert reproduce_all("--jobs", "2") == 0
    captured = capfd.readouterr()
    assert captured.out == artifacts.serial()
    assert run.here() == []
    assert_no_child_left()


@pytest.mark.parametrize("failing_fork", range(3))
def test_what_no_worker_took_runs_here(
        monkeypatch, tmp_path, capfd, failing_fork):
    artifacts = Artifacts.plain(7)
    run = Run(monkeypatch, tmp_path, artifacts)
    fork, forks = os.fork, []

    def flaky_fork():
        forks.append(1)
        if len(forks) > failing_fork:
            raise BlockingIOError("fork: resource temporarily unavailable")
        return fork()

    monkeypatch.setattr(os, "fork", flaky_fork)
    assert reproduce_all("--jobs", "3") == 0
    captured = capfd.readouterr()
    assert captured.out == artifacts.serial()
    assert captured.err == artifacts.cache_line()
    # Forking stops at the first failure; the workers forked before it
    # keep their shares, and the rest runs here, in order.
    shares = [list(range(first, 7, 3)) for first in range(failing_fork)]
    assert run.shares() == shares
    assert run.here() == sorted(set(range(7)).difference(*shares))
    assert_no_child_left()


@pytest.mark.parametrize("error", [KeyboardInterrupt, MemoryError, OSError])
def test_an_error_while_waiting_kills_and_reaps_every_worker(
        monkeypatch, tmp_path, capfd, error):
    artifacts = Artifacts.plain(4)

    def wedge(position, in_worker):
        if in_worker:
            time.sleep(TIME_LIMIT)

    run = Run(monkeypatch, tmp_path, artifacts, wedge)

    def interrupted(*args):
        raise error("while waiting")

    monkeypatch.setattr(select, "select", interrupted)
    started = time.monotonic()
    with pytest.raises(error):
        reproduce_all("--jobs", "2")
    # The wedged workers were killed, not waited out.
    assert time.monotonic() - started < TIME_LIMIT / 2
    assert run.here() == []
    assert capfd.readouterr().out == ""
    assert_no_child_left()


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_no_cache_prints_no_cache_line(monkeypatch, tmp_path, capfd, workers):
    artifacts = Artifacts.plain(5)
    Run(monkeypatch, tmp_path, artifacts)
    assert reproduce_all("--jobs", str(workers), "--no-cache") == 0
    captured = capfd.readouterr()
    assert captured.out == artifacts.serial()
    assert captured.err == ""
    assert_no_child_left()


@pytest.mark.parametrize("backend", ["warm", "WARM", " warm "])
def test_the_warm_backend_forks(monkeypatch, tmp_path, capfd, backend):
    artifacts = Artifacts.plain(4)
    run = Run(monkeypatch, tmp_path, artifacts)
    assert reproduce_all("--jobs", "2", "--backend", backend) == 0
    assert capfd.readouterr().out == artifacts.serial()
    assert run.shares() == [[0, 2], [1, 3]]
    assert_no_child_left()


@pytest.mark.parametrize("workers", [2, 3, 4])
def test_the_inline_backend_never_forks(monkeypatch, tmp_path, capfd, workers):
    artifacts = Artifacts.plain(5)
    run = Run(monkeypatch, tmp_path, artifacts)
    assert reproduce_all("--jobs", str(workers), "--backend", "inline") == 0
    captured = capfd.readouterr()
    assert captured.out == artifacts.serial()
    assert captured.err == artifacts.cache_line()
    assert run.here() == list(range(5)) and run.shares() == []


def test_repro_jobs_forks_as_jobs_does(monkeypatch, tmp_path, capfd):
    artifacts = Artifacts.plain(5)
    run = Run(monkeypatch, tmp_path, artifacts)
    monkeypatch.setenv("REPRO_JOBS", "3")
    assert reproduce_all() == 0
    assert capfd.readouterr().out == artifacts.serial()
    assert run.shares() == [[0, 3], [1, 4], [2]]
    assert_no_child_left()


def test_one_artifact_never_forks(monkeypatch, tmp_path, capfd):
    artifacts = Artifacts.plain(5)
    run = Run(monkeypatch, tmp_path, artifacts)
    assert main(["reproduce", "a3", "--jobs", "4"]) == 0
    captured = capfd.readouterr()
    assert captured.out == artifacts.serial(4)[len(artifacts.serial(3)):]
    assert captured.err == "cache: 3 hits / 7 misses\n"
    assert run.here() == [3] and run.shares() == []


def scenario(seed):
    """A seeded run: artifacts of any number, size and notes, a worker
    count and backend, and at most one fault."""
    rng = random.Random(seed)
    count = rng.randrange(1, 10)
    artifacts = Artifacts(
        texts=[
            f"== a{i}: stand-in ==\n" + "é€x\n" * rng.choice(
                [0, rng.randrange(1, 400), rng.randrange(5000, 40000)]
            )
            for i in range(count)
        ],
        notes=[tuple(f"n{i}.{j}" for j in range(rng.randrange(3)))
               for i in range(count)],
        counts=[(rng.randrange(1000), rng.randrange(1000))
                for _ in range(count)],
    )
    flags = ["--jobs", str(rng.randrange(1, 6))]
    flags += rng.choice([[], ["--backend", "warm"], ["--backend", "inline"]])
    make_fault = rng.choice([None, None, killed_at, raises_at])
    victim = rng.randrange(count)
    return artifacts, flags, make_fault, victim


@pytest.mark.parametrize("seed", range(100))
def test_any_split_with_any_fault_prints_the_serial_output(
        monkeypatch, tmp_path, capfd, seed):
    artifacts, flags, make_fault, victim = scenario(seed)
    fault = make_fault(victim) if make_fault else None
    run = Run(monkeypatch, tmp_path, artifacts, fault)
    if make_fault is raises_at:
        with pytest.raises(Broken):
            reproduce_all(*flags)
        captured = capfd.readouterr()
        assert captured.out == artifacts.serial(victim), flags
        assert captured.err == ""
    else:
        assert reproduce_all(*flags) == 0
        captured = capfd.readouterr()
        assert captured.out == artifacts.serial(), flags
        assert captured.err == artifacts.cache_line()
    # Every artifact this process rendered is one no worker delivered;
    # a worker logs the artifact it dies or raises on, and delivers none.
    delivered = {position for share in run.shares() for position in share}
    if make_fault is not None:
        delivered.discard(victim)
    assert not delivered & set(run.here())
    assert_no_child_left()
