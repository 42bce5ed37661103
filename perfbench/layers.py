"""Layer-boundary accounting for one traced ``repro`` launch.

:class:`LayerTracer` replaces the public functions at each layer
boundary of the program with timing wrappers, from outside: nothing
under ``src/`` knows it is being observed.  Every wrapped function feeds
a per-scope accumulator ``[calls, inclusive_s, self_s]``, where self
time is the scope's duration minus the time its wrapped callees took.
Every second spent inside any wrapped scope therefore lands in exactly
one scope's self time, which is what lets the harness close the
attribution against the launch's wall time.

Full spans are kept only down to one measurement — artifact
(``run_artifact``) -> ``Executor.map`` -> job ``execute`` — each
carrying its artifact's id.  Retirements, PMU updates, polls and
syscalls are accumulated, never recorded one by one.

Worker processes forked by the program (the warm backend) get the
original functions back right after the fork, so only the launching
process is traced and the workers run at full speed.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from typing import Any, Callable

#: (scope, module, attribute path) for every fixed layer boundary.
#: Counter-interface adapters and job classes are found at install time.
HOOKS: tuple[tuple[str, str, str], ...] = (
    ("cpu.retire", "repro.cpu.core", "Core.retire"),
    ("cpu.pmu_count", "repro.cpu.pmu", "Pmu.count"),
    ("cpu.loop", "repro.cpu.core", "Core.execute_loop"),
    ("kernel.boot", "repro.kernel.system", "Machine.__init__"),
    ("kernel.syscall", "repro.kernel.system", "Machine.syscall"),
    ("kernel.poll", "repro.kernel.interrupts", "InterruptController.poll"),
    ("core.run_measurement", "repro.core.measurement", "run_measurement"),
    ("core.make_interface", "repro.core.registry", "make_interface"),
    ("core.run_pattern", "repro.core.patterns", "run_pattern"),
    ("exec.map", "repro.exec.executor", "Executor.map"),
    ("exec.table", "repro.exec.plan", "MeasurementPlan.table"),
    ("backend.execute", "repro.backend.base", "ExecutionBackend.execute"),
    ("experiments.run_artifact", "repro.experiments", "run_artifact"),
    ("analysis.anova", "repro.analysis.anova", "anova_n_way"),
    ("analysis.stats", "repro.analysis.stats", "box_summary"),
    ("analysis.stats", "repro.analysis.stats", "violin_summary"),
    ("analysis.fit", "repro.analysis.regression", "fit_line"),
    ("cli.render", "repro.experiments.base", "ExperimentResult.report"),
    ("cli.render", "repro.cli", "_print_artifact_text"),
)

#: Which infrastructure layer each counter-interface adapter belongs to.
ADAPTER_LAYERS = {
    "DirectPerfctr": "perfctr",
    "DirectPerfmon": "perfmon",
    "PapiLow": "papi",
    "PapiHigh": "papi",
}
ADAPTER_VERBS = ("setup", "start_counting", "read_running", "stop_counting")

#: Span kinds, outermost first.
ARTIFACT, MAP, JOB = "artifact", "map", "job"


class LayerTracer:
    """Per-scope accumulators, measurement-level spans and exact counts."""

    def __init__(self) -> None:
        #: scope -> [calls, inclusive seconds, self seconds]
        self.scopes: dict[str, list[float]] = {}
        #: [kind, label, artifact id, parent span index, start, end]
        self.spans: list[list[Any]] = []
        self.counts: dict[str, float] = {
            "loop_trips": 0,
            "sim_cycles": 0.0,
            "ticks": 0,
            "map_jobs": 0,
            "backend_jobs": 0,
            "backend_batches": 0,
        }
        #: Layer boundaries this program version does not have.
        self.missing: list[str] = []
        self._child = [0.0]
        self._open: list[int] = []
        self._artifacts: list[str] = []
        self._measuring = False
        self._booted: list[Any] = []
        self._originals: list[tuple[Any, str, Any]] = []

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer boundary of the already-imported program."""
        for scope, module, path in HOOKS:
            self._hook(scope, module, path)
        from repro.core.registry import CounterInterface

        for cls in CounterInterface.__subclasses__():
            layer = ADAPTER_LAYERS.get(cls.__name__)
            if layer is None:
                self.missing.append(f"layer of adapter {cls.__name__}")
                continue
            for verb in ADAPTER_VERBS:
                if verb in vars(cls):
                    self._patch(cls, verb, self._timed(layer, vars(cls)[verb]))
        for cls in _job_classes():
            self._patch(cls, "execute", self._spanned(
                "exec.job", JOB, vars(cls)["execute"],
                lambda args, kwargs: type(args[0]).__name__,
            ))
        os.register_at_fork(after_in_child=self.uninstall)

    def uninstall(self) -> None:
        """Put every original function back."""
        for owner, name, original in reversed(self._originals):
            setattr(owner, name, original)
        self._originals.clear()

    def _hook(self, scope: str, module_name: str, path: str) -> None:
        try:
            module = importlib.import_module(module_name)
            owner: Any = module
            *parents, name = path.split(".")
            for parent in parents:
                owner = getattr(owner, parent)
            original = vars(owner)[name]
        except (ImportError, AttributeError, KeyError):
            self.missing.append(f"{module_name}.{path}")
            return
        wrapper = self._wrapper_for(scope, original)
        if owner is not module:
            self._patch(owner, name, wrapper)
            return
        # Functions are imported by name all over the package: rebind
        # every alias, not just the defining module's.
        for alias_owner in list(sys.modules.values()):
            if (getattr(alias_owner, "__name__", "").startswith("repro")
                    and getattr(alias_owner, name, None) is original):
                self._patch(alias_owner, name, wrapper)

    def _patch(self, owner: Any, name: str, wrapper: Callable) -> None:
        self._originals.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    def _wrapper_for(self, scope: str, fn: Callable) -> Callable:
        if scope == "kernel.boot":
            return self._timed(scope, fn, after=self._on_boot)
        if scope == "cpu.loop":
            return self._timed(scope, fn, before=self._on_loop)
        if scope == "core.run_measurement":
            return self._timed(scope, fn, before=self._on_measure_start,
                               after=self._on_measure_end)
        if scope == "backend.execute":
            return self._timed(scope, fn, after=self._on_dispatch)
        if scope == "exec.map":
            return self._counted_map(self._spanned(
                scope, MAP, fn, lambda args, kwargs: type(args[0]).__name__))
        if scope == "experiments.run_artifact":
            return self._spanned(
                scope, ARTIFACT, fn,
                lambda args, kwargs: args[0] if args else kwargs["artifact"])
        return self._timed(scope, fn)

    # -- wrappers ------------------------------------------------------------

    def _accumulator(self, scope: str) -> list[float]:
        return self.scopes.setdefault(scope, [0, 0.0, 0.0])

    def _timed(self, scope: str, fn: Callable,
               before: "Callable | None" = None,
               after: "Callable | None" = None) -> Callable:
        acc = self._accumulator(scope)
        child = self._child
        clock = time.perf_counter

        if before is None and after is None:
            def wrapper(*args, **kwargs):
                outer = child[0]
                child[0] = 0.0
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    elapsed = clock() - start
                    acc[0] += 1
                    acc[1] += elapsed
                    acc[2] += elapsed - child[0]
                    child[0] = outer + elapsed
        else:
            def wrapper(*args, **kwargs):
                if before is not None:
                    before(args, kwargs)
                outer = child[0]
                child[0] = 0.0
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    elapsed = clock() - start
                    acc[0] += 1
                    acc[1] += elapsed
                    acc[2] += elapsed - child[0]
                    child[0] = outer + elapsed
                if after is not None:
                    after(args, result)
                return result
        return functools.update_wrapper(wrapper, fn)

    def _spanned(self, scope: str, kind: str, fn: Callable,
                 label_of: Callable) -> Callable:
        """A timed wrapper that also records one span per call."""
        acc = self._accumulator(scope)
        child = self._child
        clock = time.perf_counter
        spans = self.spans
        open_spans = self._open
        artifacts = self._artifacts

        def wrapper(*args, **kwargs):
            label = label_of(args, kwargs)
            if kind == ARTIFACT:
                artifacts.append(label)
            span = [kind, label, artifacts[-1] if artifacts else "",
                    open_spans[-1] if open_spans else -1, 0.0, 0.0]
            open_spans.append(len(spans))
            spans.append(span)
            outer = child[0]
            child[0] = 0.0
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                elapsed = end - start
                acc[0] += 1
                acc[1] += elapsed
                acc[2] += elapsed - child[0]
                child[0] = outer + elapsed
                span[4] = start
                span[5] = end
                open_spans.pop()
                if kind == ARTIFACT:
                    artifacts.pop()
        return functools.update_wrapper(wrapper, fn)

    def _counted_map(self, spanned: Callable) -> Callable:
        """``Executor.map``: count the jobs it is handed.

        ``map`` turns its jobs into a list itself, so handing it a list
        made here is invisible to it and never consumes an iterator
        the program still needs.
        """
        counts = self.counts

        def wrapper(executor, jobs, *args, **kwargs):
            jobs = list(jobs)
            counts["map_jobs"] += len(jobs)
            return spanned(executor, jobs, *args, **kwargs)
        return functools.update_wrapper(wrapper, spanned)

    # -- hooks -----------------------------------------------------------------

    def _on_boot(self, args, result) -> None:
        if self._measuring:
            self._booted.append(args[0])

    def _on_loop(self, args, kwargs) -> None:
        loop = args[1] if len(args) > 1 else kwargs["loop"]
        self.counts["loop_trips"] += loop.trips

    def _on_measure_start(self, args, kwargs) -> None:
        self._booted.clear()
        self._measuring = True

    def _on_measure_end(self, args, result) -> None:
        # Simulated statistics of the machine the measurement booted.
        self._measuring = False
        self.counts["ticks"] += result.ticks
        for machine in self._booted:
            self.counts["sim_cycles"] += machine.core.cycle
        self._booted.clear()

    def _on_dispatch(self, args, result) -> None:
        self.counts["backend_jobs"] += len(args[1])
        self.counts["backend_batches"] += result.batches

    # -- output ----------------------------------------------------------------

    def dump(self) -> dict[str, Any]:
        """Everything recorded, as JSON-ready data."""
        from repro.kernel import snapshot

        return {
            "scopes": self.scopes,
            "spans": self.spans,
            "counts": dict(
                self.counts,
                snapshot_hits=snapshot.GLOBAL_STATS.hits,
                snapshot_lookups=snapshot.GLOBAL_STATS.lookups,
            ),
            "missing": self.missing,
        }


def _job_classes() -> list[type]:
    """Every class of the program implementing the executor's cacheable
    Job protocol (``execute`` plus ``cache_token``)."""
    found = []
    for name, module in list(sys.modules.items()):
        if not name.startswith("repro") or module is None:
            continue
        for value in list(vars(module).values()):
            if (isinstance(value, type) and value.__module__ == name
                    and callable(vars(value).get("execute"))
                    and callable(vars(value).get("cache_token"))):
                found.append(value)
    return found
