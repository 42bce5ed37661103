"""CLI coverage for extension artifacts and option plumbing."""

from repro.cli import main


class TestReproduceExtensions:
    def test_reproduce_extension_artifact(self, capsys):
        assert main(["reproduce", "ext:thread-isolation"]) == 0
        out = capsys.readouterr().out
        assert "virtual count" in out

    def test_reproduce_structural_figures(self, capsys):
        assert main(["reproduce", "figure2"]) == 0
        assert main(["reproduce", "figure3"]) == 0
        out = capsys.readouterr().out
        assert "libpapi" in out
        assert "movl $0, %eax" in out

    def test_seed_flag_changes_sampled_artifacts(self, capsys):
        assert main(["reproduce", "figure9", "--repeats", "2",
                     "--seed", "1"]) == 0
        first = capsys.readouterr().out
        assert main(["reproduce", "figure9", "--repeats", "2",
                     "--seed", "2"]) == 0
        second = capsys.readouterr().out
        assert first != second

    def test_seed_flag_reproducible(self, capsys):
        assert main(["reproduce", "figure9", "--repeats", "2",
                     "--seed", "3"]) == 0
        first = capsys.readouterr().out
        assert main(["reproduce", "figure9", "--repeats", "2",
                     "--seed", "3"]) == 0
        assert capsys.readouterr().out == first


class TestMeasureOptions:
    def test_counters_flag(self, capsys):
        assert main(["measure", "--processor", "K8", "--infra", "pm",
                     "--counters", "3", "--mode", "user+kernel"]) == 0
        out = capsys.readouterr().out
        assert "3 counter(s)" in out

    def test_measure_on_extension_platform(self, capsys):
        assert main(["measure", "--processor", "P3", "--infra", "pm"]) == 0
        assert "P3" in capsys.readouterr().out

    def test_measure_rejects_overbudget_counters(self, capsys):
        assert main(["measure", "--processor", "CD", "--counters", "9"]) == 2
        err = capsys.readouterr().err
        assert err == "error: CD has 2 programmable counters, 9 requested\n"
