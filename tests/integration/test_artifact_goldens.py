"""Every artifact pinned byte for byte.

``tests/integration/golden/<id>.txt`` holds each artifact's section of a
serial ``repro reproduce all --seed 0`` (ids with ``+``, ``:`` and ``.``
mapped to ``-``).  The files are tied to the benchmark's stored
references: each one's SHA-256 must equal the seed-0 entry of
``perfbench/references.json``.  One in-process serial ``reproduce all``
run is then compared with all of them, section by section, and so is one
``reproduce all --jobs 2`` run, which renders the artifacts on two
forked workers.

If a deliberate model change moves these bytes, regenerate the goldens
from one serial run, split at its ``== <id>: <title> ==`` headers, and
re-record the benchmark references with
``perfbench/record_references.py``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import re
from pathlib import Path

import pytest

from repro.cli import main
from repro.core import measurement
from repro.exec import cache as cache_mod

ROOT = Path(__file__).resolve().parents[2]
GOLDEN = Path(__file__).parent / "golden"
REFERENCES = json.loads(
    (ROOT / "perfbench" / "references.json").read_text(encoding="utf-8")
)
ORDER = REFERENCES["order"]
_HEADER = re.compile(r"^== (\S+): .* ==$", re.MULTILINE)


def golden_path(artifact: str) -> Path:
    return GOLDEN / (re.sub(r"[+:.]", "-", artifact) + ".txt")


def split_sections(stdout: str) -> dict[str, str]:
    heads = list(_HEADER.finditer(stdout))
    bounds = [m.start() for m in heads] + [len(stdout)]
    assert stdout[: bounds[0]] == ""
    return {
        m.group(1): stdout[bounds[i]:bounds[i + 1]]
        for i, m in enumerate(heads)
    }


def test_every_artifact_has_a_golden():
    assert len(ORDER) == 23
    assert sorted(p.name for p in GOLDEN.glob("*.txt")) == sorted(
        golden_path(artifact).name for artifact in ORDER
    )


@pytest.mark.parametrize("artifact", ORDER)
def test_golden_matches_benchmark_reference(artifact):
    text = golden_path(artifact).read_text(encoding="utf-8")
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    assert digest == REFERENCES["seeds"]["0"][artifact]


def reproduce_all(*flags: str) -> tuple[str, str]:
    """Stdout and stderr of an in-process ``reproduce all --seed 0``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["reproduce", "all", "--seed", "0", *flags])
    assert code == 0
    return out.getvalue(), err.getvalue()


def cold_start(monkeypatch: pytest.MonkeyPatch) -> None:
    """Give the next run an empty result cache, no resident machines and
    no recorded runs, as a fresh CLI process has."""
    monkeypatch.setattr(cache_mod, "_default", cache_mod.ResultCache())
    monkeypatch.setattr(measurement, "_resident", measurement._Resident())
    monkeypatch.setattr(measurement, "_RECORDINGS", {})


@pytest.fixture(scope="module")
def reproduced() -> dict[str, str]:
    out, _ = reproduce_all("--jobs", "1", "--backend", "inline")
    return split_sections(out)


def test_reproduce_all_prints_every_artifact_in_order(reproduced):
    assert list(reproduced) == ORDER


@pytest.mark.parametrize("artifact", ORDER)
def test_reproduce_all_matches_golden(reproduced, artifact):
    golden = golden_path(artifact).read_text(encoding="utf-8")
    assert reproduced[artifact] == golden


@pytest.fixture(scope="module")
def reproduced_warm() -> tuple[dict[str, str], str]:
    """Sections and stderr of ``reproduce all --jobs 2``: two forked
    workers, each rendering every other artifact from a cold start."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        cold_start(monkeypatch)
        out, err = reproduce_all("--jobs", "2")
    return split_sections(out), err


def test_warm_workers_execute_every_measurement(reproduced_warm):
    # Each worker's cache sees only its own artifacts, so it answers
    # fewer jobs than a serial run's (5120 hits / 19980 misses); the
    # line is a function of the artifacts, seed, repeats and --jobs.
    _, err = reproduced_warm
    assert err == "cache: 2688 hits / 22412 misses\n"


@pytest.mark.parametrize("artifact", ORDER)
def test_warm_reproduce_all_matches_golden(reproduced_warm, artifact):
    sections, _ = reproduced_warm
    golden = golden_path(artifact).read_text(encoding="utf-8")
    assert sections[artifact] == golden
