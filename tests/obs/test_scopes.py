"""``repro trace``'s per-scope accounting against the benchmark's tracer.

``perfbench/layers.py`` keeps its own copy of the layer boundaries so
the benchmark can trace commits that predate :mod:`repro.obs.scopes`.
These tests pin the two copies together — same boundaries, same call
counts and exact counts on the same run — and check what the trace
promises: its scopes close to the wall time, it finds every boundary,
and it leaves the program exactly as it found it.

The benchmark's copy still lists the execution-backend boundary, which
this program no longer has: it reports exactly that one as missing and
counts no backend jobs or batches.
"""

import json
import os
import pathlib
import sys
import types

import pytest

from repro.cli import main
from repro.core import measurement
from repro.exec import cache as cache_mod
from repro.kernel import snapshot
from repro.obs import scopes
from repro.obs.scopes import ScopeTracer

LAYERS_PY = (
    pathlib.Path(__file__).resolve().parents[2] / "perfbench" / "layers.py"
)

#: The benchmark's boundary that this program no longer has, and the
#: counts that the benchmark's tracer keeps for it.
RETIRED_HOOK = ("backend.execute", "repro.backend.base", "ExecutionBackend.execute")
RETIRED_COUNTS = ("backend_jobs", "backend_batches")


@pytest.fixture(scope="module")
def layers():
    """``perfbench/layers.py``, compiled from its source: no bytecode is
    written next to it and ``sys.path`` is left alone."""
    module = types.ModuleType("perfbench_layers")
    module.__file__ = str(LAYERS_PY)
    exec(compile(LAYERS_PY.read_text(), str(LAYERS_PY), "exec"), vars(module))
    return module


@pytest.fixture
def cold(monkeypatch):
    """Give the next run an empty result cache and snapshot store, no
    resident machines and no recorded runs, as a fresh CLI process has;
    call it again before each further run."""
    def reset():
        monkeypatch.setattr(cache_mod, "_default", cache_mod.ResultCache())
        monkeypatch.setattr(snapshot, "_default", snapshot.SnapshotStore())
        monkeypatch.setattr(measurement, "_resident", measurement._Resident())
        monkeypatch.setattr(measurement, "_RECORDINGS", {})
    return reset


def trace_json(capsys, *argv):
    assert main(["trace", *argv, "--json"]) == 0
    return json.loads(capsys.readouterr().out)


def function_attributes():
    """Every plain function bound on a loaded module or class of the
    program: what a trace may patch, keyed by where it is bound."""
    bound = {}
    for name, module in list(sys.modules.items()):
        if module is None or name.split(".")[0] != "repro":
            continue
        for attr, value in list(vars(module).items()):
            if isinstance(value, types.FunctionType):
                bound[(name, attr)] = value
            elif isinstance(value, type) and value.__module__ == name:
                for method, member in list(vars(value).items()):
                    if isinstance(member, types.FunctionType):
                        bound[(name, value.__qualname__, method)] = member
    return bound


def assert_all_restored(before):
    after = function_attributes()
    changed = [key for key, value in before.items() if after.get(key) is not value]
    assert changed == []
    wrappers = [key for key, value in after.items()
                if value.__code__.co_filename == scopes.__file__
                and key[0] != scopes.__name__]
    assert wrappers == []


class TestPinnedToPerfbench:
    def test_same_boundaries_as_the_benchmark(self, layers):
        assert scopes.HOOKS == tuple(
            hook for hook in layers.HOOKS if hook != RETIRED_HOOK
        )
        assert len(layers.HOOKS) == len(scopes.HOOKS) + 1
        assert scopes.ADAPTER_LAYERS == layers.ADAPTER_LAYERS
        assert scopes.ADAPTER_VERBS == layers.ADAPTER_VERBS

    @pytest.mark.parametrize("argv", [
        ("figure7", "--repeats", "1", "--seed", "0"),
        ("figure4", "--seed", "0"),
    ], ids=["figure7-repeats1", "figure4"])
    def test_exact_counts_equal_layer_tracer(self, layers, cold, capsys, argv):
        cold()
        hits, lookups = snapshot.GLOBAL_STATS.hits, snapshot.GLOBAL_STATS.lookups
        reference = layers.LayerTracer()
        reference.install()
        try:
            assert main(["reproduce", *argv]) == 0
        finally:
            reference.uninstall()
        capsys.readouterr()
        expected = reference.dump()

        cold()
        traced = trace_json(capsys, *argv)

        assert {scope: calls["calls"] for scope, calls in traced["scopes"].items()} \
            == {scope: acc[0] for scope, acc in expected["scopes"].items()}
        counts = dict(expected["counts"])
        counts["snapshot_hits"] -= hits
        counts["snapshot_lookups"] -= lookups
        assert [counts.pop(name) for name in RETIRED_COUNTS] == [0, 0]
        assert traced["counts"] == counts
        assert expected["missing"] == [f"{RETIRED_HOOK[1]}.{RETIRED_HOOK[2]}"]
        assert traced["missing"] == []

    def test_figure7_covers_every_layer(self, cold, capsys):
        cold()
        traced = trace_json(capsys, "figure7", "--repeats", "1", "--seed", "0")
        calls = {scope: row["calls"] for scope, row in traced["scopes"].items()}
        assert calls["cpu.retire"] == 8530
        assert calls["cpu.pmu_count"] == 16
        assert calls["cpu.loop"] == calls["core.run_measurement"] == 162
        # One resident machine per template: PD, CD and K8, each under
        # the perfctr and the perfmon kernel.
        assert calls["kernel.boot"] == 6
        # Loops that drew only their warm-up are recorded, but at
        # --repeats 1 each configuration and loop size runs once: no
        # recording is read again, so none is replayed.
        assert traced["replayed"] == 0
        assert calls["kernel.syscall"] == 729
        assert calls["kernel.poll"] == traced["counts"]["ticks"] == 25
        assert (calls["perfctr"], calls["perfmon"], calls["papi"]) \
            == (81, 81, 324)


class TestClosure:
    def test_self_times_close_to_wall_time_on_figure4(self, cold, capsys):
        cold()
        traced = trace_json(capsys, "figure4", "--seed", "0")
        own = sum(row["self_s"] for row in traced["scopes"].values())
        wall = traced["wall_s"]
        assert own + traced["unattributed_s"] == pytest.approx(wall, abs=1e-9)
        # Self times never double-count, and almost nothing runs
        # outside every scope.
        assert 0.0 <= traced["unattributed_s"] <= 0.05 * wall
        for row in traced["scopes"].values():
            assert 0.0 <= row["self_s"] <= row["inclusive_s"] + 1e-9

    def test_replayed_measurements_are_reported(self, cold, capsys):
        cold()
        traced = trace_json(capsys, "figure4", "--seed", "0")
        measured = traced["scopes"]["core.run_measurement"]["calls"]
        # Repeats of a null configuration whose seed's first deadline
        # lies past the recorded run are replayed, not simulated.
        assert 0 < traced["replayed"] < measured
        assert "replayed" not in traced["counts"]
        assert (f"replayed measurements: {traced['replayed']}"
                in scopes.render(traced).splitlines())

    def test_table_renders_the_json_payload(self, capsys):
        traced = trace_json(capsys, "figure4", "--repeats", "1")
        rows = {line.split()[0]: line.split()[1:]
                for line in scopes.render(traced).splitlines()[1:]}
        for scope, row in traced["scopes"].items():
            assert rows[scope][:2] == [f"{row['calls']:,}",
                                       f"{row['self_s']:.4f}"]
        assert rows["unattributed"][0] == f"{traced['unattributed_s']:.4f}"


class TestBoundaries:
    def test_no_boundary_is_missing(self):
        with ScopeTracer() as tracer:
            pass
        assert tracer.missing == []
        assert set(tracer.scopes) == (
            {scope for scope, _, _ in scopes.HOOKS}
            | set(scopes.ADAPTER_LAYERS.values()) | {scopes.JOB_SCOPE}
        )

    def test_a_renamed_function_is_reported(self, monkeypatch):
        monkeypatch.setattr(
            scopes, "HOOKS", scopes.HOOKS + (("x.y", "repro.cpu.core", "Core.gone"),)
        )
        with ScopeTracer() as tracer:
            pass
        assert tracer.missing == ["repro.cpu.core.Core.gone"]

    def test_aliases_imported_by_name_are_rebound(self):
        import repro.core.measurement as measurement
        import repro.exec.plan as plan

        original = measurement.run_measurement
        with ScopeTracer():
            assert plan.run_measurement is measurement.run_measurement
            assert plan.run_measurement is not original
        assert plan.run_measurement is measurement.run_measurement is original


class TestRestore:
    def test_originals_back_after_trace_returns(self, capsys):
        before = function_attributes()
        assert main(["trace", "figure4", "--repeats", "1"]) == 0
        assert_all_restored(before)

    def test_originals_back_after_trace_raises(self, cold, monkeypatch):
        import repro.core.measurement as measurement

        def broken(*args, **kwargs):
            raise RuntimeError("boot failed")

        cold()  # cached results would never reach the broken boot
        monkeypatch.setattr(measurement, "build_machine", broken)
        before = function_attributes()
        with pytest.raises(RuntimeError, match="boot failed"):
            main(["trace", "figure4", "--repeats", "1", "--seed", "5"])
        assert_all_restored(before)
        assert scopes._active is None

    def test_traced_report_equals_untraced(self, cold, capsys):
        cold()
        assert main(["reproduce", "figure7", "--repeats", "1"]) == 0
        plain = capsys.readouterr().out
        cold()
        with ScopeTracer():
            assert main(["reproduce", "figure7", "--repeats", "1"]) == 0
        assert capsys.readouterr().out == plain

    def test_one_trace_at_a_time(self):
        with ScopeTracer():
            with pytest.raises(RuntimeError, match="already installed"):
                ScopeTracer().install()

    def test_fork_hook_is_registered_once_per_process(self, monkeypatch):
        registered = []
        monkeypatch.setattr(scopes, "_fork_hook_registered", False)
        monkeypatch.setattr(os, "register_at_fork",
                            lambda **hooks: registered.append(hooks))
        for _ in range(3):
            with ScopeTracer():
                pass
        assert len(registered) == 1

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_forked_child_runs_untraced(self):
        from repro.cpu.core import Core

        original = vars(Core)["retire"]
        with ScopeTracer():
            assert vars(Core)["retire"] is not original
            read_fd, write_fd = os.pipe()
            pid = os.fork()
            if pid == 0:  # the child: report and leave at once
                untraced = vars(Core)["retire"] is original
                os.write(write_fd, b"1" if untraced else b"0")
                os._exit(0)
            os.close(write_fd)
            answer = os.read(read_fd, 1)
            os.close(read_fd)
            os.waitpid(pid, 0)
        assert answer == b"1"
