"""Pinned golden outputs: the fast path must not move a single byte.

``tests/integration/golden/*.txt`` were captured from ``repro
reproduce`` before the snapshot/memoization fast path landed.  Every
run must still reproduce them byte-for-byte, whatever ``--jobs`` and
``--backend`` say: the optimization layers are pure plumbing, and one
artifact always runs in one process.

If a deliberate model change moves these numbers, regenerate the
goldens with::

    PYTHONPATH=src python -m repro reproduce figure9 > \
        tests/integration/golden/figure9.txt 2>/dev/null

and say so in the commit message.
"""

from pathlib import Path

import pytest

from repro.cli import main

GOLDEN = Path(__file__).parent / "golden"

#: Every ``--backend`` must reproduce the goldens byte-for-byte.
BACKENDS = ["inline", "warm"]


def reproduce(capsys, artifact, *flags):
    assert main(["reproduce", artifact, *flags]) == 0
    return capsys.readouterr().out


class TestGoldenFigure9:
    def test_serial_matches_golden(self, capsys):
        golden = (GOLDEN / "figure9.txt").read_text()
        assert reproduce(capsys, "figure9") == golden

    def test_parallel_jobs4_matches_golden(self, capsys):
        golden = (GOLDEN / "figure9.txt").read_text()
        assert reproduce(capsys, "figure9", "--jobs", "4") == golden

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_every_backend_matches_golden(self, capsys, backend):
        golden = (GOLDEN / "figure9.txt").read_text()
        out = reproduce(
            capsys, "figure9", "--jobs", "2", "--backend", backend
        )
        assert out == golden


class TestGoldenFigure4:
    def test_serial_matches_golden(self, capsys):
        golden = (GOLDEN / "figure4.txt").read_text()
        assert reproduce(capsys, "figure4") == golden

    def test_parallel_matches_golden(self, capsys):
        golden = (GOLDEN / "figure4.txt").read_text()
        assert reproduce(capsys, "figure4", "--jobs", "4") == golden

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_every_backend_matches_golden(self, capsys, backend):
        golden = (GOLDEN / "figure4.txt").read_text()
        out = reproduce(
            capsys, "figure4", "--jobs", "2", "--backend", backend
        )
        assert out == golden
