"""Per-scope time accounting behind ``repro trace``.

A :class:`ScopeTracer` replaces the function at each layer boundary of
the program — the :data:`HOOKS` list, the counter-interface adapters'
verbs and every job class's ``execute`` — with a timing wrapper, and
puts every original back when the trace ends.  Each boundary feeds a
``[calls, inclusive_s, self_s]`` accumulator, where self time is the
scope's duration minus the time its wrapped callees took.  Every second
spent inside any wrapped scope therefore lands in exactly one scope's
self time, so the self times plus the time outside every scope (the
*unattributed* time) add up to the traced wall time.

Alongside the times the tracer keeps exact counts that repeat from run
to run of one seed: loop trips, timer ticks and simulated cycles of the
measured machines, jobs handed to ``Executor.map``, and boot-image
snapshot hits.  Apart from those it reports how many measurements were
answered by replaying a recorded interrupt-free run
(:mod:`repro.core.measurement`): such a measurement calls
``run_measurement`` but retires nothing and boots nothing.

Nothing in the program knows it is being observed: only the ``trace``
command imports this module, and an untraced run executes none of it.
The boundaries and counts are those of ``perfbench/layers.py``, which
keeps its own copy of the list so that the benchmark can trace any
commit, including ones that predate this module; a test pins the two
copies to each other.  That copy still names the execution-backend
layer this program no longer has, and reports it missing.

Processes forked while a trace runs (``reproduce all --jobs N``'s
artifact workers) get the original functions back right after the
fork, so only the tracing process is measured and the workers run at
full speed.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from typing import Any, Callable

from repro.core import measurement
from repro.kernel import snapshot

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

#: Scope of every job class's ``execute``.
JOB_SCOPE = "exec.job"

#: The tracer currently installed in this process, if any.
_active: "ScopeTracer | None" = None
_fork_hook_registered = False


def _restore_in_child() -> None:
    """After a fork: the child runs untraced."""
    if _active is not None:
        _active.uninstall()


class ScopeTracer:
    """Per-scope accumulators and exact counts for one traced run.

    Use it as a context manager: entering installs the wrappers and
    starts the wall clock, leaving stops the clock and restores every
    original, whether or not the body raised.
    """

    def __init__(self) -> None:
        #: scope -> [calls, inclusive seconds, self seconds]
        self.scopes: dict[str, list[float]] = {}
        self.counts: dict[str, float] = {
            "loop_trips": 0,
            "sim_cycles": 0.0,
            "ticks": 0,
            "map_jobs": 0,
            "snapshot_hits": 0,
            "snapshot_lookups": 0,
        }
        #: artifact id -> inclusive seconds of its ``run_artifact`` calls
        self.artifacts: dict[str, float] = {}
        #: Boundaries this program does not have (renamed or removed).
        self.missing: list[str] = []
        #: Measurements answered from a recorded run.
        self.replayed = 0
        self.wall_s = 0.0
        self._child = [0.0]
        self._measuring = False
        self._booted: list[Any] = []
        self._originals: list[tuple[Any, str, Any]] = []
        self._snapshots = (0, 0)
        self._replays = 0
        self._start = 0.0

    def __enter__(self) -> "ScopeTracer":
        self.install()
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.wall_s = time.perf_counter() - self._start
        self.uninstall()

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        """Wrap every layer boundary of the already-imported program."""
        global _active, _fork_hook_registered
        if _active is not None:
            raise RuntimeError("a scope trace is already installed")
        _active = self
        try:
            for scope, module, path in HOOKS:
                self._hook(scope, module, path)
            self._hook_adapters()
            self._hook_jobs()
        except BaseException:
            self.uninstall()
            raise
        if not _fork_hook_registered:
            os.register_at_fork(after_in_child=_restore_in_child)
            _fork_hook_registered = True
        stats = snapshot.GLOBAL_STATS
        self._snapshots = (stats.hits, stats.lookups)
        self._replays = measurement.replayed()

    def uninstall(self) -> None:
        """Put every original function back (idempotent)."""
        global _active
        if _active is not self:
            return
        stats = snapshot.GLOBAL_STATS
        hits, lookups = self._snapshots
        self.counts["snapshot_hits"] = stats.hits - hits
        self.counts["snapshot_lookups"] = stats.lookups - lookups
        self.replayed = measurement.replayed() - self._replays
        for owner, name, original in reversed(self._originals):
            setattr(owner, name, original)
        self._originals.clear()
        _active = None

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
        for alias_owner in _program_modules():
            if vars(alias_owner).get(name) is original:
                self._patch(alias_owner, name, wrapper)

    def _hook_adapters(self) -> None:
        from repro.core.registry import CounterInterface

        found = {cls.__name__: cls for cls in CounterInterface.__subclasses__()}
        for name in sorted(set(found) | set(ADAPTER_LAYERS)):
            cls, layer = found.get(name), ADAPTER_LAYERS.get(name)
            if cls is None or layer is None:
                self.missing.append(f"counter-interface adapter {name}")
                continue
            for verb in ADAPTER_VERBS:
                if verb in vars(cls):
                    self._patch(cls, verb, self._timed(layer, vars(cls)[verb]))
                else:
                    self.missing.append(f"{cls.__module__}.{name}.{verb}")

    def _hook_jobs(self) -> None:
        classes = _job_classes()
        if not classes:
            self.missing.append("job classes (execute and cache_token)")
        for cls in classes:
            self._patch(cls, "execute", self._timed(JOB_SCOPE, vars(cls)["execute"]))

    def _patch(self, owner: Any, name: str, wrapper: Callable) -> None:
        self._originals.append((owner, name, vars(owner)[name]))
        setattr(owner, name, wrapper)

    def _wrapper_for(self, scope: str, fn: Callable) -> Callable:
        if scope == "kernel.boot":
            return self._timed(scope, fn, after=self._on_boot)
        if scope == "cpu.loop":
            return self._timed(scope, fn, before=self._on_loop)
        if scope == "core.run_measurement":
            return self._timed(scope, fn, before=self._on_measure_start,
                               after=self._on_measure_end)
        if scope == "exec.map":
            return self._counted_map(self._timed(scope, fn))
        if scope == "experiments.run_artifact":
            return self._timed(scope, fn, after=self._on_artifact)
        return self._timed(scope, fn)

    # -- wrappers --------------------------------------------------------

    def _timed(self, scope: str, fn: Callable,
               before: "Callable | None" = None,
               after: "Callable | None" = None) -> Callable:
        """``fn`` charging its self time to ``scope``.

        ``before(args, kwargs)`` runs ahead of the call and
        ``after(args, kwargs, result, seconds)`` behind a call that
        returned; both run outside the timed interval.
        """
        acc = self.scopes.setdefault(scope, [0, 0.0, 0.0])
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
                    after(args, kwargs, result, elapsed)
                return result
        return functools.update_wrapper(wrapper, fn)

    def _counted_map(self, timed: Callable) -> Callable:
        """``Executor.map``: count the jobs it is handed.

        ``map`` turns its jobs into a list itself, so handing it a list
        made here is invisible to it and never consumes an iterator
        the program still needs.
        """
        counts = self.counts

        def wrapper(executor, jobs, *args, **kwargs):
            jobs = list(jobs)
            counts["map_jobs"] += len(jobs)
            return timed(executor, jobs, *args, **kwargs)
        return functools.update_wrapper(wrapper, timed)

    # -- count hooks -----------------------------------------------------

    def _on_boot(self, args, kwargs, result, seconds) -> None:
        if self._measuring:
            self._booted.append(args[0])

    def _on_loop(self, args, kwargs) -> None:
        loop = args[1] if len(args) > 1 else kwargs["loop"]
        self.counts["loop_trips"] += loop.trips

    def _on_measure_start(self, args, kwargs) -> None:
        self._booted.clear()
        self._measuring = True

    def _on_measure_end(self, args, kwargs, result, seconds) -> None:
        # Simulated statistics of the machine the measurement booted.
        self._measuring = False
        self.counts["ticks"] += result.ticks
        for machine in self._booted:
            self.counts["sim_cycles"] += machine.core.cycle
        self._booted.clear()

    def _on_artifact(self, args, kwargs, result, seconds) -> None:
        artifact = args[0] if args else kwargs["artifact"]
        self.artifacts[artifact] = self.artifacts.get(artifact, 0.0) + seconds

    # -- output ----------------------------------------------------------

    def payload(self) -> dict[str, Any]:
        """The finished trace as JSON-ready data."""
        attributed = sum(acc[2] for acc in self.scopes.values())
        return {
            "wall_s": self.wall_s,
            "unattributed_s": self.wall_s - attributed,
            "scopes": {
                scope: {"calls": int(calls), "inclusive_s": inclusive,
                        "self_s": own}
                for scope, (calls, inclusive, own) in sorted(self.scopes.items())
            },
            "artifacts": dict(self.artifacts),
            "counts": dict(self.counts),
            "replayed": self.replayed,
            "missing": list(self.missing),
        }


def render(payload: dict[str, Any]) -> str:
    """The printable form of :meth:`ScopeTracer.payload`."""
    wall = payload["wall_s"]

    def share(seconds: float) -> str:
        return f"{100.0 * seconds / wall if wall else 0.0:>6.1f}%"

    rows = sorted(payload["scopes"].items(),
                  key=lambda item: (-item[1]["self_s"], item[0]))
    lines = [f"{'scope':<26} {'calls':>11} {'self (s)':>10} {'share':>7} "
             f"{'incl (s)':>10}"]
    for scope, row in rows:
        lines.append(f"{scope:<26} {row['calls']:>11,} {row['self_s']:>10.4f} "
                     f"{share(row['self_s'])} {row['inclusive_s']:>10.4f}")
    lines.append(f"{'unattributed':<26} {'':>11} "
                 f"{payload['unattributed_s']:>10.4f} "
                 f"{share(payload['unattributed_s'])}")
    lines.append(f"traced wall time: {wall:.4f} s")
    lines.append("artifacts (inclusive s):")
    for artifact, seconds in payload["artifacts"].items():
        lines.append(f"  {artifact:<24} {seconds:>10.4f}")
    lines.append("exact counts:")
    for name, value in payload["counts"].items():
        lines.append(f"  {name:<24} {value!r}")
    lines.append(f"replayed measurements: {payload['replayed']}")
    if payload["missing"]:
        lines.append("missing boundaries: " + ", ".join(payload["missing"]))
    return "\n".join(lines)


def _program_modules() -> list[Any]:
    """Every loaded module of the program."""
    return [module for name, module in list(sys.modules.items())
            if module is not None and name.split(".")[0] == "repro"]


def _job_classes() -> list[type]:
    """Every class of the program implementing the executor's cacheable
    Job protocol (``execute`` plus ``cache_token``)."""
    found = []
    for module in _program_modules():
        for value in list(vars(module).values()):
            if (isinstance(value, type) and value.__module__ == module.__name__
                    and callable(vars(value).get("execute"))
                    and callable(vars(value).get("cache_token"))):
                found.append(value)
    return found
