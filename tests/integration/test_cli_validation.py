"""Structured CLI validation: bad knobs exit 2 with one-line errors.

A user who types ``--jobs 0`` gets ``error: ...`` on stderr and exit
code 2 — never a traceback from deep inside the engine or the service
stack.
"""

import pytest

from repro.backend import set_default_backend, set_default_deadline
from repro.chaos import reset_chaos
from repro.cli import main
from repro.exec import set_default_batch, set_default_jobs


@pytest.fixture(autouse=True)
def clean_defaults(monkeypatch):
    from repro.cpu import fastforward

    monkeypatch.delenv("REPRO_JOBS", raising=False)
    monkeypatch.delenv("REPRO_BATCH", raising=False)
    monkeypatch.delenv("REPRO_BACKEND", raising=False)
    monkeypatch.delenv("REPRO_DEADLINE", raising=False)
    monkeypatch.delenv("REPRO_CHAOS", raising=False)
    monkeypatch.delenv("REPRO_FF", raising=False)
    monkeypatch.delenv("REPRO_FF_WARMUP", raising=False)
    yield
    set_default_jobs(None)
    set_default_batch(None)
    set_default_backend(None)
    set_default_deadline(None)
    reset_chaos()
    fastforward.reset_fastforward()


def expect_error(capsys, argv, message):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err


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
            "error: unknown backend 'bogus'; known: inline, pool, warm",
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

    def test_serve_validates_backend_too(self, capsys):
        expect_error(
            capsys, ["serve", "--backend", "bogus"],
            "error: unknown backend 'bogus'",
        )


class TestChaosValidation:
    def test_unknown_fault_point_exit_2(self, capsys):
        expect_error(
            capsys, ["reproduce", "figure4", "--chaos", "bogus-point"],
            "error: unknown chaos fault point 'bogus-point'",
        )

    def test_malformed_parameter_exit_2(self, capsys):
        expect_error(
            capsys, ["reproduce", "figure4", "--chaos", "worker-kill:p"],
            "error: chaos parameter must be key=value",
        )

    def test_out_of_range_probability_exit_2(self, capsys):
        expect_error(
            capsys, ["reproduce", "figure4", "--chaos", "worker-kill:p=2"],
            "error: chaos probability must be in [0, 1]",
        )

    def test_bad_env_chaos_exit_2(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS", "bogus-point")
        expect_error(
            capsys, ["reproduce", "figure4"],
            "error: unknown chaos fault point 'bogus-point'",
        )

    def test_explicit_chaos_shadows_bad_env(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS", "bogus-point")
        assert main(
            ["reproduce", "figure4", "--chaos", "worker-kill:p=0"]
        ) == 0
        capsys.readouterr()

    def test_env_chaos_reaches_the_injector(self, capsys, monkeypatch):
        from repro.chaos import get_injector

        monkeypatch.setenv("REPRO_CHAOS", "worker-kill:p=0,seed=5")
        assert main(["reproduce", "figure4"]) == 0
        capsys.readouterr()
        assert get_injector().configured("worker-kill")

    def test_trace_validates_chaos_too(self, capsys):
        expect_error(
            capsys, ["trace", "figure4", "--chaos", "bogus-point"],
            "error: unknown chaos fault point",
        )

    def test_serve_validates_chaos_too(self, capsys):
        expect_error(
            capsys, ["serve", "--chaos", "bogus-point"],
            "error: unknown chaos fault point",
        )


class TestFastForwardValidation:
    def test_unknown_mode_exit_2(self, capsys):
        expect_error(
            capsys, ["reproduce", "figure4", "--fast-forward", "bogus"],
            "error: fast-forward mode must be one of auto, on, off; "
            "got 'bogus'",
        )

    @pytest.mark.parametrize("bad", ["0", "-3"])
    def test_non_positive_warmup_exit_2(self, capsys, bad):
        expect_error(
            capsys, ["reproduce", "figure4", "--ff-warmup", bad],
            f"error: fast-forward warmup must be an integer >= 1, got {bad}",
        )

    def test_bad_env_mode_exit_2(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_FF", "warp")
        # The env default is resolved lazily, but an explicit warmup flag
        # forces the mode chain to be read — and validated — eagerly.
        expect_error(
            capsys, ["reproduce", "figure4", "--ff-warmup", "8"],
            "error: fast-forward mode must be one of auto, on, off",
        )

    def test_bad_env_warmup_exit_2(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_FF_WARMUP", "soon")
        expect_error(
            capsys, ["reproduce", "figure4", "--fast-forward", "on"],
            "error: fast-forward warmup must be an integer >= 1, got 'soon'",
        )

    def test_explicit_flags_shadow_bad_env(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_FF", "warp")
        monkeypatch.setenv("REPRO_FF_WARMUP", "soon")
        assert main(
            ["reproduce", "figure4", "--fast-forward", "on",
             "--ff-warmup", "2"]
        ) == 0
        capsys.readouterr()

    def test_trace_validates_fast_forward_too(self, capsys):
        expect_error(
            capsys, ["trace", "figure4", "--fast-forward", "bogus"],
            "error: fast-forward mode must be one of auto, on, off",
        )

    def test_serve_validates_fast_forward_too(self, capsys):
        expect_error(
            capsys, ["serve", "--fast-forward", "bogus"],
            "error: fast-forward mode must be one of auto, on, off",
        )

    def test_serve_validates_warmup_too(self, capsys):
        expect_error(
            capsys, ["serve", "--ff-warmup", "0"],
            "error: fast-forward warmup must be an integer >= 1, got 0",
        )


class TestBenchGateValidation:
    def test_garbage_gate_env_exit_2(self, capsys, monkeypatch, tmp_path):
        import json

        monkeypatch.setenv("REPRO_BENCH_GATE", "squishy")
        path = tmp_path / "r.json"
        path.write_text(json.dumps({"benchmarks": [
            {"name": "b", "stats": {"mean": 1.0}},
        ]}))
        expect_error(
            capsys, ["bench", "diff", str(path), str(path)],
            "error: REPRO_BENCH_GATE must be advisory or hard, "
            "got 'squishy'",
        )


class TestDeadlineValidation:
    @pytest.mark.parametrize("bad", ["0", "-1.5"])
    def test_non_positive_deadline_exit_2(self, capsys, bad):
        expect_error(
            capsys, ["reproduce", "figure4", "--deadline", bad],
            "error: deadline must be > 0 seconds",
        )

    def test_bad_env_deadline_exit_2(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_DEADLINE", "soon")
        # The env chain is consulted lazily by the backend; the CLI
        # flag path itself must still validate eagerly.
        expect_error(
            capsys, ["reproduce", "figure4", "--deadline", "0"],
            "error: deadline must be > 0 seconds",
        )

    def test_serve_validates_deadline_too(self, capsys):
        expect_error(
            capsys, ["serve", "--deadline", "0"],
            "error: deadline must be > 0 seconds",
        )


class TestServeValidation:
    def test_non_positive_workers_exit_2(self, capsys):
        expect_error(
            capsys, ["serve", "--workers", "0"],
            "error: workers must be >= 1, got 0",
        )

    def test_non_positive_queue_depth_exit_2(self, capsys):
        expect_error(
            capsys, ["serve", "--queue-depth", "-1"],
            "error: queue-depth must be >= 1, got -1",
        )

    def test_non_positive_request_timeout_exit_2(self, capsys):
        expect_error(
            capsys, ["serve", "--request-timeout", "0"],
            "error: request-timeout must be > 0, got 0.0",
        )


class TestFleetValidation:
    def test_non_positive_shards_exit_2(self, capsys):
        expect_error(
            capsys, ["fleet", "serve", "--shards", "0"],
            "error: shards must be >= 1, got 0",
        )

    def test_non_positive_workers_exit_2(self, capsys):
        expect_error(
            capsys, ["fleet", "serve", "--workers", "-1"],
            "error: workers must be >= 1, got -1",
        )

    def test_non_positive_queue_depth_exit_2(self, capsys):
        expect_error(
            capsys, ["fleet", "serve", "--queue-depth", "0"],
            "error: queue-depth must be >= 1, got 0",
        )

    def test_non_positive_request_timeout_exit_2(self, capsys):
        expect_error(
            capsys, ["fleet", "serve", "--request-timeout", "0"],
            "error: request-timeout must be > 0, got 0.0",
        )

    def test_bad_chaos_spec_exit_2(self, capsys):
        expect_error(
            capsys, ["fleet", "serve", "--chaos", "warp-core:p=1"],
            "error: unknown chaos fault point 'warp-core'",
        )


class TestLoadtestValidation:
    @pytest.mark.parametrize(
        "flag", ["--shards", "--workers", "--clients", "--requests",
                 "--distinct", "--loop-iters"],
    )
    def test_non_positive_knobs_exit_2(self, capsys, flag):
        expect_error(
            capsys, ["loadtest", flag, "0"],
            f"error: {flag.lstrip('-')} must be >= 1, got 0",
        )

    def test_host_without_port_exit_2(self, capsys):
        expect_error(
            capsys, ["loadtest", "--host", "127.0.0.1"],
            "error: --host requires --port",
        )


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
