"""Every example under examples/ must run to completion.

The examples are the package's front door; this test keeps them green
by importing each one as a module and calling its ``main()``.  An
example that writes a committed file (its module-level ``OUTPUT``)
writes it under the test's temporary directory instead, and what it
writes must equal the committed copy.
"""

import importlib.util
import pathlib
import re
import sys

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parents[2] / "examples"
EXAMPLES = sorted(EXAMPLES_DIR.glob("*.py"))


def load_example(path: pathlib.Path):
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
    assert spec is not None and spec.loader is not None
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def signless_zeros(text: str) -> str:
    """``text`` with every printed negative zero (``-0.0``, ``-0.00`` …)
    written as a positive one.

    The report runs at ``repeats=1``, where the sign of Section 4.3's
    ``opt`` F, a rounding-noise term that explains nothing, depends on
    the least-squares solver's last bits.
    """
    return re.sub(r"-(0\.0+)(?![0-9])", r"\1", text)


class TestExamples:
    def test_examples_exist(self):
        assert len(EXAMPLES) >= 6
        names = {path.stem for path in EXAMPLES}
        assert "quickstart" in names

    @pytest.mark.parametrize(
        "path", EXAMPLES, ids=[path.stem for path in EXAMPLES]
    )
    def test_example_runs(self, path, capsys, tmp_path):
        module = load_example(path)
        assert hasattr(module, "main"), f"{path.name} must define main()"
        committed = getattr(module, "OUTPUT", None)
        if committed is not None:
            module.OUTPUT = tmp_path / committed.name
        module.main()
        out = capsys.readouterr().out
        assert len(out.splitlines()) >= 3, f"{path.name} printed too little"
        if committed is not None:
            assert signless_zeros(module.OUTPUT.read_text()) == signless_zeros(
                committed.read_text()
            )
