"""Shared infrastructure for the paper-artifact benchmarks.

Every benchmark regenerates one table or figure of the paper and
prints/saves a paper-vs-measured report.  Scale is controlled by the
``REPRO_BENCH_REPEATS`` environment variable (default: a quick pass;
raise it to approach the paper's sample sizes).
"""

from __future__ import annotations

import os
import pathlib

import pytest

from repro.experiments.base import ExperimentResult

REPORT_DIR = pathlib.Path(__file__).parent / "reports"


def bench_repeats(default: int) -> int:
    """Per-configuration repetitions, scaled by REPRO_BENCH_REPEATS."""
    scale = int(os.environ.get("REPRO_BENCH_REPEATS", "1"))
    return max(1, default * scale)


@pytest.fixture
def report() -> "ReportSink":
    return ReportSink()


class ReportSink:
    """Prints an experiment's report and persists it next to the bench."""

    def emit(self, result: ExperimentResult) -> None:
        text = result.report()
        print()
        print(text)
        for note in result.notes:
            print(f"note: {note}")
        REPORT_DIR.mkdir(exist_ok=True)
        safe = (
            result.experiment_id.replace("+", "_")
            .replace(".", "_")
            .replace(":", "_")
        )
        (REPORT_DIR / f"{safe}.txt").write_text(text + "\n")
