"""``reproduce all --jobs N``: forked artifact workers, and their faults.

The CLI forks its workers before it runs anything; worker *i* renders
artifacts *i*, *i* + N, … and sends each one's text home.  Whatever a
worker did not deliver runs again in this process, so a worker that
dies changes no byte, an artifact that raises raises here as it would
in a serial run, and no worker outlives the command.  Runs that did not
ask for workers never fork.

Each fault comes from the test: ``repro.cli.run_artifact`` is wrapped
to act in a worker, and every call is logged, with the pid it ran in,
to a file that the workers append to as well.
"""

import os
import signal

import pytest

from repro import cli
from repro.cli import main
from repro.exec.plan import MeasurementJob

from tests.integration.test_artifact_goldens import (
    ORDER,
    cold_start,
    golden_path,
    split_sections,
)

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")

FIGURE5 = ORDER.index("figure5")


class Broken(Exception):
    """Raised by the wrapped ``run_artifact`` on figure 5."""


def goldens(names=ORDER) -> dict[str, str]:
    return {name: golden_path(name).read_text(encoding="utf-8") for name in names}


def logged_calls(monkeypatch, tmp_path, fault=None):
    """Wrap ``repro.cli.run_artifact``: log each call's pid and artifact,
    then apply ``fault(artifact)``.  Returns a reader of the log."""
    log = tmp_path / "calls"
    log.touch()
    original = cli.run_artifact

    def run_artifact(artifact, **kwargs):
        with open(log, "a", encoding="utf-8") as out:
            out.write(f"{os.getpid()} {artifact}\n")
        if fault is not None:
            fault(artifact)
        return original(artifact, **kwargs)

    monkeypatch.setattr(cli, "run_artifact", run_artifact)

    def calls() -> list[tuple[int, str]]:
        return [(int(pid), name) for pid, name in
                (line.split() for line in log.read_text().splitlines())]
    return calls


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_killed_worker_s_artifacts_run_here(monkeypatch, tmp_path, capsys):
    test_pid = os.getpid()

    def fault(artifact):
        if artifact == "figure5" and os.getpid() != test_pid:
            os.kill(os.getpid(), signal.SIGKILL)

    calls = logged_calls(monkeypatch, tmp_path, fault)
    assert main(["reproduce", "all", "--seed", "0", "--jobs", "2"]) == 0
    assert split_sections(capsys.readouterr().out) == goldens()
    # The worker holding figure 5 died there; the other one delivered
    # all of its artifacts.  This process ran only what the dead worker
    # never sent.
    assert [name for pid, name in calls() if pid == test_pid] \
        == ORDER[FIGURE5::2]
    assert ("figure5" in
            [name for pid, name in calls() if pid != test_pid])
    assert_no_child_left()


def test_an_artifact_that_raises_in_a_worker_raises_here(
        monkeypatch, tmp_path, capfd):
    def fault(artifact):
        if artifact == "figure5":
            raise Broken(artifact)

    calls = logged_calls(monkeypatch, tmp_path, fault)
    with pytest.raises(Broken):
        main(["reproduce", "all", "--seed", "0", "--jobs", "2"])
    captured = capfd.readouterr()
    # Everything before figure 5 is printed, as a serial run prints it,
    # and the worker that raised wrote nothing to the shared stdout or
    # stderr: no traceback, no cache line.
    assert split_sections(captured.out) == goldens(ORDER[:FIGURE5])
    assert captured.err == ""
    ran_figure5 = [pid for pid, name in calls() if name == "figure5"]
    assert len(ran_figure5) == 2 and ran_figure5[-1] == os.getpid()
    assert_no_child_left()


def test_no_fork_unless_workers_render_several_artifacts(monkeypatch, capsys):
    forks = []

    def no_fork():
        forks.append(1)
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", no_fork)
    for flags in (["--jobs", "2", "--backend", "inline"], ["--jobs", "1"]):
        assert main(["reproduce", "all", "--seed", "0", *flags]) == 0
        assert split_sections(capsys.readouterr().out) == goldens()
    # One artifact runs in one process, whatever --jobs says, also when
    # none of its measurements is cached.
    cold_start(monkeypatch)
    assert main(["reproduce", "figure9", "--jobs", "4"]) == 0
    assert capsys.readouterr().out == golden_path("figure9").read_text()
    assert forks == []


def test_without_fork_all_runs_in_this_process(monkeypatch, capsys):
    executed = []
    execute = MeasurementJob.execute

    def counted(job):
        executed.append(os.getpid())
        return execute(job)

    monkeypatch.setattr(MeasurementJob, "execute", counted)
    monkeypatch.delattr(os, "fork")
    cold_start(monkeypatch)
    assert main(["reproduce", "all", "--seed", "0", "--jobs", "2"]) == 0
    captured = capsys.readouterr()
    assert split_sections(captured.out) == goldens()
    # The serial run's cache line, with its measurements run here.
    assert captured.err == "cache: 5120 hits / 19980 misses\n"
    assert executed and set(executed) == {os.getpid()}
