"""The repository benchmark: cold ``repro`` CLI launches, timed from outside.

Usage::

    python3 perfbench/run.py --workload reproduce-all --seed 0 \\
        --seconds 25 --trace 0

One harness process launches one cold CLI process at a time (a closed
loop) through ``perfbench/launch.py``, times it from outside, and
checks every artifact it prints against the references stored in
``perfbench/references.json``.  Launches continue while the next one is
expected to end inside the ``--seconds`` window; at least one always
runs.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``
(``wall_s``, ``setup_s``, ``measurements_per_s``, ``cpu_s``,
``peak_rss_mb``) as medians over the run's launches.  ``--trace 1``
alternates untraced and traced launches and reports the per-layer
split of the traced launch with the median wall time, taken by
:mod:`layers` at the program's layer boundaries.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; everything above it is the human-readable
report, which names every metric with its unit.  See ``README.md`` in
this directory for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import compileall
import contextlib
import hashlib
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
LAUNCHER = HERE / "launch.py"
REFERENCES = HERE / "references.json"
#: Scratch space for launch outputs, removed when the run ends.
RUNS_DIR = ROOT / ".perfbench-runs"

#: Every launch of a run must end this many seconds after the build
#: (a run as a whole has 180 s).
BUDGET_S = 165.0
#: Set-up samples an untraced run takes; launches that the window
#: leaves short are made up with import-only launches.
SETUP_SAMPLES = 5


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a ``repro`` command line and its model."""

    #: ``reproduce <artifact id or all> ...``, without ``--seed``.
    argv: tuple[str, ...]
    #: Worker processes the CLI runs besides itself.
    workers: int
    why: str
    #: Per-layer metrics predicted not to move (or to read zero) here.
    flat: tuple[str, ...]


WORKLOADS = {
    "reproduce-all": Workload(
        argv=("reproduce", "all"),
        workers=0,
        why="the north-star run: every artifact serially on the inline "
            "backend; simulation layers dominate, fast-forward engages "
            "only in the figure 7-12 loop sweeps",
        flat=("backend.* (inline dispatch, no IPC)",),
    ),
    "figure4-cold": Workload(
        argv=("reproduce", "figure4"),
        workers=0,
        why="the interactive number: one artifact from a cold CLI, "
            "mostly import; a null-benchmark perfctr sweep with no "
            "loops, cache hits or scipy use",
        flat=(
            "cpu.loops", "cpu.loop_trips", "cpu.loop_self_s",
            "perfmon.*", "papi.*", "exec.cache_hit_ratio",
            "analysis.anova_s", "analysis.fit_s", "backend.*",
            "experiments.* except experiments.figure4_s",
            "sim.table3_err_pct (not reproduced)",
        ),
    ),
    "reproduce-all-jobs2": Workload(
        argv=("reproduce", "all", "--jobs", "2", "--backend", "warm"),
        workers=2,
        why="the same plans through repro.backend dispatch and IPC to "
            "2 persistent warm workers; the only workload exercising "
            "that layer",
        flat=(
            "worker-side layers (cpu.*, kernel.*, perfctr.*, perfmon.*, "
            "papi.*, core.*, exec.job_*): traced on the coordinator only",
        ),
    ),
}

#: Counts that repeat exactly between runs of one commit and seed.
EXACT = frozenset({
    "import.modules", "cpu.retire_calls", "cpu.pmu_count_calls",
    "cpu.loops", "cpu.loop_trips", "kernel.boots",
    "kernel.snapshot_lookups", "kernel.snapshot_hit_ratio",
    "kernel.syscalls", "kernel.polls", "kernel.ticks", "perfctr.calls",
    "perfmon.calls", "papi.calls", "core.measurements", "exec.jobs",
    "exec.cache_hit_ratio", "exec.job_count", "sim.cycles",
    "sim.table3_err_pct",
})

_HEADER = re.compile(r"^== (\S+): .* ==$", re.MULTILINE)
_CACHE_LINE = re.compile(r"^cache: (\d+) hits / (\d+) misses", re.MULTILINE)
_TABLE3_ROW = re.compile(
    r"^(?:user\+kernel|user|kernel)\s+\S+\s+\S+\s+(-?[\d.]+)\s+-?[\d.]+"
    r"\s+\(\S+, (-?[\d.]+), -?[\d.]+\)$",
    re.MULTILINE,
)


class HarnessError(Exception):
    """The benchmark itself cannot run here (exit 2, no result)."""


# -- launching ---------------------------------------------------------------

@dataclass
class Launch:
    """One finished CLI process, measured from outside."""

    mode: str
    wall_s: float
    setup_s: "float | None"
    #: From the CLI's return to process exit: teardown and atexit work.
    exit_s: "float | None"
    cpu_s: float
    peak_rss_mb: float
    exit_code: int
    stdout: str
    stderr: str
    stamp: "dict[str, Any] | None"

    @property
    def misses(self) -> "int | None":
        """Measurements executed: the misses on the CLI's cache line."""
        match = _CACHE_LINE.search(self.stderr)
        return int(match.group(2)) if match else None

    @property
    def hits(self) -> "int | None":
        match = _CACHE_LINE.search(self.stderr)
        return int(match.group(1)) if match else None

    @property
    def crashed(self) -> bool:
        return (self.exit_code != 0
                or "Traceback (most recent call last)" in self.stderr)


class Launcher:
    """Starts CLI processes one at a time and waits for each to end."""

    def __init__(self, run_dir: Path, deadline: float) -> None:
        self.run_dir = run_dir
        self.deadline = deadline
        self.count = 0
        env = {k: v for k, v in os.environ.items()
               if not k.startswith("REPRO_")}
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), env.get("PYTHONPATH")) if p)
        self.env = env

    def launch(self, mode: str, argv: tuple[str, ...]) -> Launch:
        self.count += 1
        base = self.run_dir / str(self.count)
        stamp_path = base.with_suffix(".stamp")
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise TimeoutError("run budget spent before the launch")
        command = [sys.executable, str(LAUNCHER), str(stamp_path), mode,
                   *argv]
        with open(base.with_suffix(".out"), "wb") as out, \
                open(base.with_suffix(".err"), "wb") as err:
            start = time.clock_gettime(time.CLOCK_MONOTONIC)
            proc = subprocess.Popen(
                command, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                cwd=ROOT, env=self.env, start_new_session=True,
            )
            killer = threading.Timer(timeout, _kill_group, (proc.pid,))
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                end = time.clock_gettime(time.CLOCK_MONOTONIC)
            except BaseException:
                _kill_group(proc.pid)
                proc.wait()
                raise
            finally:
                killer.cancel()
                killer.join()
                _reap_group(proc.pid)
            proc.returncode = os.waitstatus_to_exitcode(status)
        stamp = None
        if stamp_path.exists():
            stamp = json.loads(stamp_path.read_text(encoding="utf-8"))
        return Launch(
            mode=mode,
            wall_s=end - start,
            setup_s=stamp["import_done"] - start if stamp else None,
            exit_s=end - stamp["main_end"] if stamp else None,
            cpu_s=usage.ru_utime + usage.ru_stime,
            # Linux reports kilobytes: the largest resident set of the
            # process and every descendant it waited for.
            peak_rss_mb=usage.ru_maxrss / 1024.0,
            exit_code=proc.returncode,
            stdout=_text(base.with_suffix(".out")),
            stderr=_text(base.with_suffix(".err")),
            stamp=stamp,
        )


def _text(path: Path) -> str:
    return path.read_text(encoding="utf-8", errors="replace")


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _reap_group(pgid: int) -> None:
    """Make sure nothing the launch started outlives it."""
    for _ in range(500):
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        _kill_group(pgid)
        time.sleep(0.01)
    print(f"perfbench: process group {pgid} did not exit", file=sys.stderr)


def closed_loop(launcher: Launcher, modes: tuple[str, ...],
                argv: tuple[str, ...], seconds: float) -> list[Launch]:
    """Launch ``modes`` in turn while the next round should end inside
    the window and the run's budget; the first round always runs."""
    start = time.monotonic()
    launches: list[Launch] = []
    while True:
        for mode in modes:
            launches.append(launcher.launch(mode, argv))
        now = time.monotonic()
        per_round = (now - start) * len(modes) / len(launches)
        if (now - start + per_round > seconds
                or now + per_round > launcher.deadline):
            return launches


# -- output checks -------------------------------------------------------------

def split_sections(stdout: str) -> "tuple[str, list[tuple[str, str]]]":
    """Text before the first ``== <id>: <title> ==`` header, and each
    artifact's ``(id, section text)`` in print order."""
    heads = list(_HEADER.finditer(stdout))
    if not heads:
        return stdout, []
    bounds = [m.start() for m in heads] + [len(stdout)]
    return stdout[:bounds[0]], [
        (m.group(1), stdout[bounds[i]:bounds[i + 1]])
        for i, m in enumerate(heads)
    ]


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass
class Checker:
    """Compares each launch's artifacts with the stored references."""

    #: Every artifact id, in ``reproduce all`` order.
    order: list[str]
    #: The artifact ids one launch prints.
    expected: list[str]
    references: "dict[str, str] | None"
    seed_independent: dict[str, str]

    @classmethod
    def load(cls, workload: Workload, seed: int) -> "Checker":
        refs = json.loads(REFERENCES.read_text(encoding="utf-8"))
        order = refs["order"]
        artifact = workload.argv[1]
        expected = order if artifact == "all" else [artifact]
        by_seed = refs["seeds"].get(str(seed))
        any_seed = next(iter(refs["seeds"].values()))
        return cls(
            order=order,
            expected=expected,
            references=by_seed,
            seed_independent={a: any_seed[a] for a in refs["seed_independent"]},
        )

    def failures(self, launch: Launch, baseline: "Launch | None") -> list[str]:
        """Artifact ids of ``launch`` that are wrong (all on a crash).

        An artifact is wrong when it is missing or out of order, when its
        bytes differ from the stored reference for this seed (or, for
        seeds without references, from the seed-independent ones), or
        when they differ from ``baseline``, an earlier launch of the
        same command in this run.
        """
        if launch.crashed:
            return list(self.expected)
        preamble, sections = split_sections(launch.stdout)
        if preamble.strip() or len(sections) != len(self.expected):
            return list(self.expected)
        base = dict(split_sections(baseline.stdout)[1]) if baseline else {}
        wrong = []
        for want, (got, text) in zip(self.expected, sections):
            expect = (self.references or self.seed_independent).get(want)
            if (got != want
                    or (expect is not None and digest(text) != expect)
                    or (want in base and text != base[want])
                    or text.count("\n") < 2):
                wrong.append(want)
        return wrong

    def describe(self, seed: int) -> str:
        if self.references is not None:
            return f"every artifact against the references stored for seed {seed}"
        return (f"no references stored for seed {seed}: order and structure, "
                f"{len(self.seed_independent)} seed-independent artifacts "
                "byte for byte, and launches of this run against each other")


def table3_error_pct(stdout: str) -> "float | None":
    """Median relative error (%) of the Table 3 medians vs the paper's."""
    section = dict(split_sections(stdout)[1]).get("figure6+table3")
    if section is None:
        return None
    errors = [abs(float(ours) - float(paper)) / abs(float(paper)) * 100.0
              for ours, paper in _TABLE3_ROW.findall(section)]
    return statistics.median(errors) if errors else None


# -- metrics ---------------------------------------------------------------------

def metric_id(artifact: str) -> str:
    return re.sub(r"[+:.]", "-", artifact)


def end_to_end(launches: list[Launch], setups: list[Launch],
               attempted: int, failed: int) -> dict[str, tuple]:
    """Untraced metrics: ``name -> (value, unit, base)``."""
    usable = [x for x in launches if x.setup_s is not None and x.misses]
    if not usable:
        raise HarnessError("no launch produced a measurable result")
    n = len(usable)
    misses = sorted({x.misses for x in usable})
    setup = [x.setup_s for x in usable + setups if x.setup_s is not None]
    return {
        "wall_s": (statistics.median(x.wall_s for x in usable), "s",
                   f"median of {n} launches, spawn to exit"),
        "setup_s": (statistics.median(setup), "s",
                    f"median of {len(setup)} launches, spawn to "
                    "`import repro.cli` done"),
        "measurements_per_s": (
            statistics.median(x.misses / (x.wall_s - x.setup_s)
                              for x in usable), "1/s",
            f"measurements executed per launch: {misses}; median of {n}"),
        "cpu_s": (statistics.median(x.cpu_s for x in usable), "s",
                  f"user+sys incl. reaped workers; median of {n}"),
        "peak_rss_mb": (statistics.median(x.peak_rss_mb for x in usable), "MB",
                        f"largest process of the CLI tree; median of {n}"),
        "fail_ratio": (failed / attempted, "ratio",
                       f"{failed} failed of {attempted} artifacts"),
    }


def per_layer(traced: Launch, untraced: int, overhead: float,
              artifact_ids: list[str]) -> dict[str, tuple]:
    """Traced metrics of one launch: ``name -> (value, unit, base)``."""
    trace = traced.stamp["trace"]
    scopes = trace["scopes"]
    counts = trace["counts"]

    def calls(*names: str) -> int:
        return sum(int(scopes.get(s, (0, 0, 0))[0]) for s in names)

    def self_s(*names: str) -> float:
        return sum(scopes.get(s, (0, 0, 0))[2] for s in names)

    jobs = [(end - start) * 1000.0
            for kind, _, _, _, start, end in trace["spans"] if kind == "job"]
    percentiles = (statistics.quantiles(jobs, n=100, method="inclusive")
                   if len(jobs) > 1 else jobs * 99)
    by_artifact: dict[str, float] = {}
    for kind, label, _, _, start, end in trace["spans"]:
        if kind == "artifact":
            by_artifact[label] = by_artifact.get(label, 0.0) + end - start
    lookups = counts["snapshot_lookups"]
    batches = counts["backend_batches"]
    table3 = table3_error_pct(traced.stdout)
    core = ("core.run_measurement", "core.make_interface", "core.run_pattern")
    attributed = (traced.setup_s + traced.exit_s
                  + sum(s[2] for s in scopes.values()))
    metrics = {
        "import.s": (traced.setup_s, "s", "spawn to `import repro.cli` done"),
        "import.modules": (traced.stamp["modules"], "count",
                           "modules loaded by `import repro.cli`"),
        "cpu.retire_calls": (calls("cpu.retire"), "count", "Core.retire"),
        "cpu.retire_self_s": (self_s("cpu.retire"), "s", "self"),
        "cpu.pmu_count_calls": (calls("cpu.pmu_count"), "count", "Pmu.count"),
        "cpu.pmu_count_s": (self_s("cpu.pmu_count"), "s", "self"),
        "cpu.loops": (calls("cpu.loop"), "count", "Core.execute_loop"),
        "cpu.loop_trips": (counts["loop_trips"], "count", "sum of loop trips"),
        "cpu.loop_self_s": (self_s("cpu.loop"), "s", "self"),
        "kernel.boots": (calls("kernel.boot"), "count", "Machine boots"),
        "kernel.boot_s": (self_s("kernel.boot"), "s", "self"),
        "kernel.snapshot_lookups": (lookups, "count", "boot-image lookups"),
        "kernel.snapshot_hit_ratio": (
            counts["snapshot_hits"] / lookups if lookups else 0.0, "ratio",
            f"{counts['snapshot_hits']} hits of {lookups} lookups"),
        "kernel.syscalls": (calls("kernel.syscall"), "count", "Machine.syscall"),
        "kernel.syscall_self_s": (self_s("kernel.syscall"), "s",
                                  "self, incl. kext handlers"),
        "kernel.polls": (calls("kernel.poll"), "count",
                         "InterruptController.poll"),
        "kernel.poll_self_s": (self_s("kernel.poll"), "s", "self"),
        "kernel.ticks": (counts["ticks"], "count",
                         "timer ticks on measured machines"),
        "perfctr.calls": (calls("perfctr"), "count", "adapter verbs"),
        "perfctr.self_s": (self_s("perfctr"), "s", "self"),
        "perfmon.calls": (calls("perfmon"), "count", "adapter verbs"),
        "perfmon.self_s": (self_s("perfmon"), "s", "self"),
        "papi.calls": (calls("papi"), "count", "adapter verbs"),
        "papi.self_s": (self_s("papi"), "s", "self"),
        "core.measurements": (calls("core.run_measurement"), "count",
                              "run_measurement"),
        "core.self_s": (self_s(*core), "s",
                        "self of run_measurement, make_interface, run_pattern"),
        "exec.jobs": (counts["map_jobs"], "count", "jobs through Executor.map"),
        "exec.cache_hit_ratio": (
            (counts["map_jobs"] - counts["backend_jobs"]) / counts["map_jobs"]
            if counts["map_jobs"] else 0.0, "ratio",
            f"{counts['map_jobs'] - counts['backend_jobs']} hits of "
            f"{counts['map_jobs']} exec.jobs"),
        "exec.map_self_s": (self_s("exec.map"), "s", "self"),
        "exec.table_s": (self_s("exec.table"), "s", "self of plan.table"),
        "exec.job_self_s": (self_s("exec.job"), "s", "self of job execute"),
        "exec.job_ms_p50": (percentiles[49] if jobs else None, "ms",
                            f"inclusive, of {len(jobs)} jobs in this process"),
        "exec.job_ms_p99": (percentiles[98] if jobs else None, "ms",
                            f"inclusive, of {len(jobs)} jobs in this process"),
        "exec.job_count": (len(jobs), "count", "jobs executed in this process"),
        "backend.batches": (batches, "count", "ExecutionBackend.execute"),
        "backend.jobs_per_batch": (
            counts["backend_jobs"] / batches if batches else 0.0, "jobs/batch",
            f"{counts['backend_jobs']} jobs in {batches} backend.batches"),
        "backend.execute_s": (self_s("backend.execute"), "s",
                              "self: dispatch and waiting on workers"),
        **{
            f"experiments.{metric_id(a)}_s": (
                by_artifact.get(a, 0.0), "s", "inclusive, run_artifact")
            for a in artifact_ids
        },
        "experiments.self_s": (self_s("experiments.run_artifact"), "s",
                               "self of run_artifact"),
        "analysis.anova_s": (self_s("analysis.anova"), "s", "anova_n_way"),
        "analysis.stats_s": (self_s("analysis.stats"), "s",
                             "box_summary, violin_summary"),
        "analysis.fit_s": (self_s("analysis.fit"), "s", "fit_line"),
        "cli.render_s": (self_s("cli.render"), "s",
                         "ExperimentResult.report and the write"),
        "cli.exit_s": (traced.exit_s, "s",
                       "CLI return to process exit: atexit, teardown"),
        "sim.cycles": (counts["sim_cycles"], "cycles",
                       f"summed over {calls('core.run_measurement')} "
                       "measured machines"),
        "sim.table3_err_pct": (table3, "%",
                               "median |ours-paper|/paper of 12 Table 3 "
                               "medians"),
        "trace.overhead_ratio": (overhead, "ratio",
                                 f"traced / untraced wall_s, medians of "
                                 f"{untraced} untraced launches"),
        "trace.unattributed_s": (traced.wall_s - attributed, "s",
                                 "traced wall_s - import.s - cli.exit_s - "
                                 "all self times"),
    }
    return metrics


# -- the run -----------------------------------------------------------------------

def stamp(seed: int) -> dict[str, Any]:
    """What a result must be compared by: seed, code, host, toolchain."""
    sha = "unavailable: not a git checkout"
    if (ROOT / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=30, check=False,
        )
        sha = proc.stdout.strip() or sha
    source = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        source.update(str(path.relative_to(SRC)).encode())
        source.update(path.read_bytes())
    return {
        "seed": seed,
        "git_sha": sha,
        "source_sha256": source.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
    }


def run(name: str, seed: int, seconds: int, traced: bool) -> dict[str, Any]:
    """Measure one workload; prints the report, returns the result line."""
    if not (SRC / "repro" / "cli.py").is_file():
        raise HarnessError(f"no program to measure: {SRC}/repro/cli.py is "
                           "missing; run from the root of a checkout")
    workload = WORKLOADS[name]
    argv = (*workload.argv, "--seed", str(seed))
    checker = Checker.load(workload, seed)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    # The build: byte-compile once, so no launch pays for it.
    if not compileall.compile_dir(str(SRC), quiet=1):
        raise HarnessError("src/ does not byte-compile")
    RUNS_DIR.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(dir=RUNS_DIR))
    try:
        launcher = Launcher(run_dir, time.monotonic() + BUDGET_S)
        launches = closed_loop(launcher, ("run", "trace") if traced
                               else ("run",), argv, seconds)
        setups = []
        while not traced and len(launches) + len(setups) < SETUP_SAMPLES:
            setups.append(launcher.launch("setup", ()))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            RUNS_DIR.rmdir()

    wrong: dict[str, int] = {}
    for launch in launches:
        for artifact in checker.failures(launch, launches[0]):
            wrong[artifact] = wrong.get(artifact, 0) + 1
    attempted = len(checker.expected) * len(launches)
    failed = sum(wrong.values())

    chosen = None
    if traced:
        untraced = [x for x in launches if x.mode == "run"]
        tracings = sorted((x for x in launches
                           if x.mode == "trace" and x.stamp), key=_wall)
        if not tracings or not untraced:
            raise HarnessError("no traced launch completed")
        chosen = tracings[(len(tracings) - 1) // 2]
        overhead = (statistics.median(map(_wall, tracings))
                    / statistics.median(map(_wall, untraced)))
        metrics = per_layer(chosen, len(untraced), overhead, checker.order)
        declared = spec["per_layer"]
    else:
        metrics = end_to_end(launches, setups, attempted, failed)
        declared = spec["end_to_end"]

    report(name, workload, argv, seed, seconds, launches + setups, checker,
           wrong, metrics, chosen)
    values = {}
    for entry in declared:
        value, unit, _ = metrics[entry["name"]]
        if value is None or unit != entry["unit"]:
            raise HarnessError(f"{entry['name']}: measured {value!r} {unit}, "
                               f"BENCHMARK.json declares {entry['unit']}")
        values[entry["name"]] = {"value": value, "unit": unit}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": values}


def _wall(launch: Launch) -> float:
    return launch.wall_s


def report(name: str, workload: Workload, argv: tuple[str, ...], seed: int,
           seconds: int, launches: list[Launch], checker: Checker,
           wrong: dict[str, int], metrics: dict[str, tuple],
           chosen: "Launch | None") -> None:
    """The human-readable part of the output."""
    print(f"perfbench: workload {name}, "
          f"{'untraced' if chosen is None else 'traced'} run, "
          f"{seconds} s window")
    print("stamp: " + json.dumps(stamp(seed), sort_keys=True))
    print(f"command: repro {' '.join(argv)}")
    print(f"load: closed loop, one CLI at a time from one harness process; "
          f"{workload.workers} worker processes (nproc "
          f"{len(os.sched_getaffinity(0))})")
    print(f"why: {workload.why}")
    print(f"predicted flat: {', '.join(workload.flat)}")
    print(f"{'launch':>6}  {'mode':5}  {'wall_s':>8}  {'setup_s':>7}  "
          f"{'exit_s':>7}  {'cpu_s':>7}  {'rss_mb':>7}  {'code':>4}  "
          "hits/misses")
    for i, x in enumerate(launches, 1):
        setup, done = (f"{t:7.3f}" if t is not None else "      -"
                       for t in (x.setup_s, x.exit_s))
        print(f"{i:>6}  {x.mode:5}  {x.wall_s:8.3f}  {setup}  {done}  "
              f"{x.cpu_s:7.3f}  {x.peak_rss_mb:7.1f}  {x.exit_code:>4}  "
              f"{x.hits}/{x.misses}")
    print(f"check: {checker.describe(seed)}; "
          + ("all artifacts correct" if not wrong else
             "WRONG: " + ", ".join(f"{a} (x{n})" for a, n in wrong.items())))
    if chosen is not None:
        trace = chosen.stamp["trace"]
        scopes = trace["scopes"]
        total_self = sum(s[2] for s in scopes.values())
        print(f"attribution (launch with median traced wall): import.s "
              f"{chosen.setup_s:.4f} + self times of {len(scopes)} scopes "
              f"{total_self:.4f} + cli.exit_s {chosen.exit_s:.4f} + "
              f"trace.unattributed_s "
              f"{metrics['trace.unattributed_s'][0]:.4f} = wall_s "
              f"{chosen.wall_s:.4f}")
        if trace["missing"]:
            print("missing layer boundaries: " + ", ".join(trace["missing"]))
    print(f"{'metric':32}  {'value':>16}  {'unit':10}  exact  base")
    for metric, (value, unit, base) in metrics.items():
        exact = metric in EXACT
        if value is None:
            shown = "n/a"
        elif isinstance(value, float) and not exact:
            shown = f"{value:.6g}"
        else:
            shown = repr(value)  # exact counts keep every digit
        print(f"{metric:32}  {shown:>16}  {unit:10}  "
              f"{'yes' if exact else '':5}  {base}")


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (HarnessError, OSError) as exc:
        print(f"perfbench: error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
