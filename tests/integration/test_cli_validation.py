"""Structured CLI validation: bad knobs exit 2 with one-line errors.

A user who types ``--jobs 0`` gets ``error: ...`` on stderr and exit
code 2 — never a traceback from deep inside the engine.
"""

import re
from pathlib import Path

import pytest

from repro.backend import set_default_backend, set_default_deadline
from repro.cli import main
from repro.exec import cache as cache_mod
from repro.exec import set_default_batch, set_default_jobs

GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture(autouse=True)
def clean_defaults(monkeypatch):
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    monkeypatch.delenv("REPRO_BATCH", raising=False)
    monkeypatch.delenv("REPRO_BACKEND", raising=False)
    monkeypatch.delenv("REPRO_DEADLINE", raising=False)
    monkeypatch.delenv("REPRO_SLOW_JOB", raising=False)
    yield
    set_default_jobs(None)
    set_default_batch(None)
    set_default_backend(None)
    set_default_deadline(None)


def expect_error(capsys, argv, message, code=2):
    assert main(argv) == code
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err
    return err


class TestJobsValidation:
    @pytest.mark.parametrize("bad", ["0", "-3"])
    def test_non_positive_jobs_exit_2(self, capsys, bad):
        expect_error(
            capsys, ["reproduce", "figure4", "--jobs", bad],
            f"error: jobs must be >= 1, got {bad}",
        )

    def test_bad_env_jobs_exit_2(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "lots")
        expect_error(
            capsys, ["reproduce", "figure4"],
            "error: REPRO_JOBS must be an integer",
        )

    def test_trace_validates_jobs_too(self, capsys):
        expect_error(
            capsys, ["trace", "figure4", "--jobs", "0"],
            "error: jobs must be >= 1, got 0",
        )


class TestBatchSizeValidation:
    @pytest.mark.parametrize("bad", ["0", "-2"])
    def test_non_positive_batch_size_exit_2(self, capsys, bad):
        expect_error(
            capsys, ["reproduce", "figure4", "--batch-size", bad],
            f"error: batch size must be >= 1, got {bad}",
        )

    def test_bad_env_batch_exit_2(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_BATCH", "many")
        expect_error(
            capsys, ["reproduce", "figure4"],
            "error: REPRO_BATCH must be an integer",
        )

    def test_trace_validates_batch_size_too(self, capsys):
        expect_error(
            capsys, ["trace", "figure4", "--batch-size", "0"],
            "error: batch size must be >= 1, got 0",
        )


class TestBackendValidation:
    def test_unknown_backend_exit_2(self, capsys):
        expect_error(
            capsys, ["reproduce", "figure4", "--backend", "bogus"],
            "error: unknown backend 'bogus'; known: inline, warm",
        )

    def test_bad_env_backend_exit_2(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "turbo")
        expect_error(
            capsys, ["reproduce", "figure4"],
            "error: unknown backend 'turbo'",
        )

    def test_explicit_backend_shadows_bad_env(self, capsys, monkeypatch):
        # An explicit --backend must win before the env var is even read.
        monkeypatch.setenv("REPRO_BACKEND", "turbo")
        assert main(["reproduce", "figure4", "--backend", "inline"]) == 0
        capsys.readouterr()

    def test_trace_validates_backend_too(self, capsys):
        expect_error(
            capsys, ["trace", "figure4", "--backend", "bogus"],
            "error: unknown backend 'bogus'",
        )


class TestRemovedFastForwardKnobs:
    """Loops have one execution path; its old knobs are gone."""

    @pytest.mark.parametrize("argv", [
        ["reproduce", "figure4", "--fast-forward", "off"],
        ["trace", "figure4", "--ff-warmup", "8"],
    ])
    def test_flags_are_unrecognized(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments" in err
        assert "Traceback" not in err

    def test_stale_env_is_ignored(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_FF", "warp")
        assert main(["reproduce", "figure4"]) == 0
        golden = (GOLDEN / "figure4.txt").read_text()
        assert capsys.readouterr().out == golden


class TestRemovedFleetAndPool:
    """The pool backend and the fleet/loadtest/bench/report commands are
    gone: each is refused up front, never half-run."""

    POOL_ERROR = "error: unknown backend 'pool'; known: inline, warm\n"

    @pytest.mark.parametrize("argv", [
        ["reproduce", "figure4", "--backend", "pool"],
        ["trace", "figure4", "--backend", "pool"],
    ])
    def test_pool_backend_flag_exit_2(self, capsys, argv):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == self.POOL_ERROR
        assert captured.out == ""

    def test_pool_backend_env_exit_2(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "pool")
        assert main(["reproduce", "figure4"]) == 2
        captured = capsys.readouterr()
        assert captured.err == self.POOL_ERROR
        assert captured.out == ""

    @pytest.mark.parametrize("argv", [
        ["fleet", "serve"],
        ["loadtest"],
        ["bench", "diff", "a", "b"],
        ["report", "x.json"],
    ])
    def test_removed_commands_are_invalid_choices(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice" in err
        assert "Traceback" not in err

    def test_no_fork_falls_back_to_inline(self, monkeypatch):
        from repro.backend import resolve_backend_name
        from repro.backend import warm as warm_module

        monkeypatch.setattr(warm_module, "warm_available", lambda: False)
        assert resolve_backend_name(jobs=4) == "inline"


class TestRemovedSpanTree:
    """The span tree, its Chrome export and the inventory-only metrics
    command are gone: their flags and command are refused up front."""

    # Each command line is also invalid in a way the command itself
    # rejects, so a build that accepted --trace-out again would fail
    # fast here instead of running an artifact.
    @pytest.mark.parametrize("argv", [
        ["reproduce", "figure4", "--trace-out", "x", "--repeats", "0"],
        ["trace", "figure4", "--trace-out", "x", "--repeats", "0"],
        ["measure", "--trace-out", "x", "--counters", "0"],
    ])
    def test_trace_out_is_unrecognized(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments" in err
        assert "Traceback" not in err

    def test_metrics_command_is_an_invalid_choice(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["metrics"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice" in err
        assert "Traceback" not in err


class TestRemovedChaos:
    """The fault injector is gone: ``--chaos`` is refused up front and a
    leftover ``REPRO_CHAOS`` changes nothing."""

    # Each command line is also invalid in a way the command itself
    # rejects, so a build that accepted --chaos again would fail fast
    # here instead of running an artifact.
    @pytest.mark.parametrize("argv", [
        ["reproduce", "figure4", "--chaos", "worker-kill:p=1",
         "--repeats", "0"],
        ["trace", "figure4", "--chaos", "worker-kill:p=1", "--repeats", "0"],
        ["measure", "--chaos", "worker-kill:p=1", "--counters", "0"],
    ])
    def test_chaos_flag_is_unrecognized(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments: --chaos" in err
        assert "Traceback" not in err

    def test_stale_env_is_ignored(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS", "bogus-point")
        assert main(["reproduce", "figure4", "--jobs", "2"]) == 0
        golden = (GOLDEN / "figure4.txt").read_text()
        assert capsys.readouterr().out == golden


class TestRemovedServiceTier:
    """The service commands, JSON logging, the resume journal and the
    disk cache tier are gone: their commands and flags are refused up
    front, and their leftover variables change nothing."""

    # Each command line is also invalid in a way the command itself
    # rejects, so a build that accepted the command or flag again would
    # fail fast here instead of running a server or an artifact.
    @pytest.mark.parametrize("argv", [
        ["serve", "--workers", "0"],
        ["submit", "figure4", "--repeats", "0"],
        ["status"],
    ])
    def test_commands_are_invalid_choices(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"invalid choice: '{argv[0]}'" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["--log-json", "reproduce", "figure4", "--repeats", "0"],
        ["reproduce", "figure4", "--cache-dir", "x", "--repeats", "0"],
        ["reproduce", "figure4", "--resume", "--repeats", "0"],
        ["reproduce", "figure4", "--journal-dir", "x", "--repeats", "0"],
    ])
    def test_flags_are_unrecognized(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments" in err
        assert "Traceback" not in err

    def test_stale_env_is_ignored(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_LOG", "stderr")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        # The default cache reads the environment when it is first
        # built: make this run build it.
        monkeypatch.setattr(cache_mod, "_default", cache_mod._UNSET)
        assert main(["reproduce", "figure4"]) == 0
        captured = capsys.readouterr()
        assert captured.out == (GOLDEN / "figure4.txt").read_text()
        assert re.fullmatch(r"cache: \d+ hits / \d+ misses\n", captured.err)
        assert list(tmp_path.iterdir()) == []


class TestDeadlineValidation:
    @pytest.mark.parametrize("bad", ["0", "-1.5"])
    def test_non_positive_deadline_exit_2(self, capsys, bad):
        expect_error(
            capsys, ["reproduce", "figure4", "--deadline", bad],
            "error: deadline must be > 0 seconds",
        )

    def test_bad_env_deadline_exit_2(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_DEADLINE", "soon")
        # The backend reads the variable only mid-run; the CLI must
        # resolve it before running anything.
        err = expect_error(
            capsys, ["reproduce", "figure4", "--jobs", "2"],
            "error: REPRO_DEADLINE must be a number of seconds, got 'soon'",
        )
        assert err.count("\n") == 1

    def test_bad_env_slow_job_exit_2(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_SLOW_JOB", "-1")
        err = expect_error(
            capsys, ["trace", "figure4", "--jobs", "2"],
            "error: REPRO_SLOW_JOB must be > 0 seconds, got -1.0",
        )
        assert err.count("\n") == 1


class TestMeasureValidation:
    @pytest.mark.parametrize("flags,message", [
        (["--counters", "0"], "error: counters must be >= 1, got 0"),
        (["--counters", "99"],
         "error: CD has 2 programmable counters, 99 requested"),
        (["--loop", "-5"], "error: loop must be >= 0, got -5"),
        (["--infra", "PHpc", "--pattern", "rr"],
         "error: PHpc does not support read-read"),
        (["--no-tsc", "--infra", "pm"],
         "error: tsc=False is a direct-perfctr knob"),
        (["--seed", "-3"], "error: seed must be >= 0, got -3"),
    ])
    def test_bad_measurement_exit_2(self, capsys, flags, message):
        assert main(["measure", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(message)
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.err
        assert captured.out == ""

    def test_good_measurement_still_runs(self, capsys):
        assert main(["measure", "--loop", "1000", "--seed", "3"]) == 0
        assert "measured:" in capsys.readouterr().out
