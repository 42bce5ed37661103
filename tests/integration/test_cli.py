"""Tests for the repro CLI."""

import re

import pytest

from repro.cli import main


class TestList:
    def test_lists_artifacts(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "figure4" in out
        assert "ext:sampling" in out

    def test_list_json(self, capsys):
        import json

        assert main(["list", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        by_id = {a["id"]: a for a in data["artifacts"]}
        assert by_id["figure4"]["kind"] == "paper"
        assert by_id["figure4"]["description"]
        assert by_id["ext:sampling"]["kind"] == "extension"


class TestReproduce:
    def test_reproduce_table1(self, capsys):
        assert main(["reproduce", "table1"]) == 0
        out = capsys.readouterr().out
        assert "Pentium D 925" in out

    def test_reproduce_with_repeats(self, capsys):
        assert main(["reproduce", "figure4", "--repeats", "1"]) == 0
        assert "read-read" in capsys.readouterr().out

    def test_unknown_artifact(self, capsys):
        assert main(["reproduce", "figure99"]) == 2
        assert "unknown artifact" in capsys.readouterr().err

    def test_invalid_repeats_rejected(self, capsys):
        assert main(["reproduce", "figure4", "--repeats", "0"]) == 2
        assert "repeats must be >= 1" in capsys.readouterr().err
        assert main(["reproduce", "figure4", "--repeats", "-3"]) == 2
        assert "repeats must be >= 1" in capsys.readouterr().err

    def test_invalid_repeats_rejected_for_submit_too(self, capsys):
        # submit is gone: refused as a command before its flags are read
        with pytest.raises(SystemExit) as exc:
            main(["submit", "figure4", "--repeats", "0"])
        assert exc.value.code == 2
        assert "invalid choice: 'submit'" in capsys.readouterr().err

    def test_cache_summary_line_on_stderr(self, capsys):
        from repro.exec import configure_default_cache

        configure_default_cache(enabled=True)
        assert main(["reproduce", "figure4", "--repeats", "1"]) == 0
        err = capsys.readouterr().err
        assert re.fullmatch(r"cache: \d+ hits / \d+ misses\n", err)


class TestMeasure:
    def test_null_measurement(self, capsys):
        assert main(["measure", "--infra", "pm", "--pattern", "rr",
                     "--mode", "user"]) == 0
        out = capsys.readouterr().out
        assert "error:" in out

    def test_loop_measurement(self, capsys):
        assert main(["measure", "--loop", "1000", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "expected 3001 instructions" in out

    def test_tsc_off(self, capsys):
        assert main(["measure", "--infra", "pc", "--no-tsc",
                     "--pattern", "rr"]) == 0
        out = capsys.readouterr().out
        assert "error:" in out

    def test_invalid_choice_rejected(self):
        with pytest.raises(SystemExit):
            main(["measure", "--infra", "oprofile"])


class TestAdvise:
    def test_advise_user_mode(self, capsys):
        assert main(["advise", "--processor", "CD", "--mode", "user"]) == 0
        out = capsys.readouterr().out
        assert "measure with pm" in out

    def test_advise_user_kernel(self, capsys):
        assert main(["advise", "--mode", "user+kernel"]) == 0
        out = capsys.readouterr().out
        assert "measure with pc" in out
        assert "duration" in out
