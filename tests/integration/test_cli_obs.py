"""CLI observability: the trace subcommand, stdout purity.

Several stdout consumers parse the CLI's output (``list --json``,
``submit``'s acknowledgement, artifact reports that are byte-compared
against local runs), so every diagnostic — cache summaries, structured
logs — must land on stderr, and tracing must not change artifact
output by a byte.
"""

import json
import re

import pytest

from repro.cli import main
from repro.exec import cache as cache_mod
from repro.experiments import ALL_EXPERIMENTS
from repro.obs.logging import reset_logging
from repro.obs.scopes import ScopeTracer


@pytest.fixture(autouse=True)
def _fresh_logging(monkeypatch):
    monkeypatch.delenv("REPRO_LOG", raising=False)
    reset_logging()
    yield
    reset_logging()


@pytest.fixture
def fresh_cache(monkeypatch):
    """An empty result cache, so the traced run measures every job."""
    monkeypatch.setattr(cache_mod, "_default", cache_mod.ResultCache())


class TestTraceCommand:
    def test_breakdown_table(self, fresh_cache, capsys):
        assert main(["trace", "figure4", "--repeats", "1",
                     "--seed", "11"]) == 0
        out = capsys.readouterr().out
        assert "trace of figure4" in out
        assert "scope" in out and "self (s)" in out
        assert re.search(r"^core\.run_measurement +[1-9]", out, re.MULTILINE)
        assert "traced wall time:" in out
        assert "exact counts:" in out

    def test_breakdown_total_matches_wall_time_within_5_percent(
        self, fresh_cache, capsys
    ):
        assert main(["trace", "figure4", "--repeats", "1"]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        start = next(i for i, line in enumerate(lines)
                     if line.startswith("scope")) + 1
        end = next(i for i, line in enumerate(lines)
                   if line.startswith("unattributed"))
        accounted = sum(float(line.split()[2]) for line in lines[start:end])
        accounted += float(lines[end].split()[1])
        wall = float(
            re.search(r"traced wall time: ([0-9.]+) s", out).group(1)
        )
        assert accounted == pytest.approx(wall, rel=0.05)

    def test_all_prints_every_artifacts_inclusive_time(self, capsys):
        assert main(["trace", "all", "--repeats", "1"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("trace of all (seed 0):")
        lines = out.splitlines()
        start = lines.index("artifacts (inclusive s):") + 1
        rows = [line.split() for line in lines[start:start + len(ALL_EXPERIMENTS)]]
        assert [row[0] for row in rows] == list(ALL_EXPERIMENTS)
        assert all(float(row[1]) >= 0.0 for row in rows)

    def test_unknown_artifact(self, capsys):
        assert main(["trace", "nope"]) == 2
        assert "unknown artifact" in capsys.readouterr().err

    def test_invalid_repeats_rejected(self, capsys):
        assert main(["trace", "figure4", "--repeats", "0"]) == 2
        assert "repeats must be >= 1" in capsys.readouterr().err


class TestStdoutPurity:
    def test_list_json_clean_with_logging_enabled(self, capsys):
        assert main(["--log-json", "list", "--json"]) == 0
        captured = capsys.readouterr()
        data = json.loads(captured.out)  # would raise if logs leaked
        assert data["artifacts"]

    def test_list_json_clean_with_env_logging(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_LOG", "stderr")
        reset_logging()
        assert main(["list", "--json"]) == 0
        json.loads(capsys.readouterr().out)

    def test_reproduce_stdout_identical_with_tracing(
        self, monkeypatch, capsys
    ):
        assert main(["reproduce", "figure4", "--repeats", "1"]) == 0
        plain = capsys.readouterr().out
        # A fresh cache, so the traced run measures everything again.
        monkeypatch.setattr(cache_mod, "_default", cache_mod.ResultCache())
        with ScopeTracer():
            assert main(["reproduce", "figure4", "--repeats", "1"]) == 0
        traced = capsys.readouterr()
        assert traced.out == plain  # byte-identical artifact output
        assert "cache: 0 hits" in traced.err

    def test_trace_json_is_the_only_stdout(self, capsys):
        assert main(["--log-json", "trace", "figure4", "--repeats", "1",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["artifact"] == "figure4"
        assert payload["scopes"]["core.run_measurement"]["calls"] >= 0

    def test_cache_summary_stays_on_stderr(self, capsys):
        assert main(["reproduce", "figure4", "--repeats", "1"]) == 0
        captured = capsys.readouterr()
        assert "cache:" not in captured.out
        assert "cache:" in captured.err


class TestSubmitPurity:
    def test_submit_stdout_is_one_parseable_line(self, capsys):
        from repro.service.server import ServiceInThread

        with ServiceInThread(workers=1, slow_job_threshold=None) as service:
            assert main([
                "--log-json", "submit", "figure4", "--repeats", "1",
                "--port", str(service.port),
            ]) == 0
            captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert len(lines) == 1
        assert re.fullmatch(r"submitted (job-\S+) \(\w+\)", lines[0])
        assert "trace:" not in captured.err  # submit mints no trace id
