"""Measurement independence: a result depends only on its job.

``run_measurement`` resets one resident machine per boot image for
every job it simulates, and answers an interrupt-free job from a
recorded run of what the job reads.  State a reset leaves behind, or a
recording replayed where the job's own run would differ, could show
only in some orders of jobs, and the goldens check two.  So Hypothesis
draws sub-plans from the job kinds of ``reproduce all`` — null sweeps
over every infrastructure, pattern, both modes, the TSC on and off and
1-4 counters; short loops; the microsuite — with several seeds per
configuration, shuffles them, and runs them with a partly warmed result
cache; some also run on four threads, and a handful in a subprocess
that does nothing else.
Every result must equal the result of the same job run alone on a newly
built machine with no recordings.
While a sub-plan runs:

* every reset must leave the state of a newly built machine, although
  every idle resident machine is dirtied before each job with state of
  every kind a run can leave;
* every replayed job's own run, alone, must have delivered no
  interrupt and ended at or before the recording's horizon.

Every sub-plan also carries each witness pair, in order and never
served from the cache: a first job, and a second one that a replay of
the first job's recording would answer wrongly — its first deadline
falls inside the recorded run or its warm-up margin, its code is
placed elsewhere, or its cycle count or end clock differs.  So the
replay, the re-simulation and the interrupt paths all run, and the
property checks that they did.  Eight breaks of the mechanism, each
applied with ``monkeypatch``, make it fail.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import subprocess
import sys
import threading
from collections import Counter
from dataclasses import replace
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st

from repro.core import measurement
from repro.core.benchmarks import Benchmark, LoopBenchmark
from repro.core.compiler import DEFAULT_GCC, OptLevel
from repro.core.config import INFRASTRUCTURES, MeasurementConfig, Mode, Pattern
from repro.cpu.core import DEADLINE_EPSILON_S, LOOP_WARMUP_CYCLES, Core
from repro.cpu.models import ALL_PROCESSORS
from repro.cpu.pmu import Pmu
from repro.exec import Executor, plan
from repro.exec.cache import ResultCache
from repro.exec.plan import BenchmarkSpec, MeasurementJob
from repro.kernel.interrupts import first_deadline_s
from repro.kernel.snapshot import boot_image
from repro.kernel.system import Machine

from tests.kernel.machine_state import dirty, machine_state

ROOT = Path(__file__).resolve().parents[2]

#: Null configurations with long runs, so that a seed whose first
#: deadline falls inside their recording is quick to find.
WITNESS_CONFIGS = (
    MeasurementConfig(processor="PD", infra="pc", pattern=Pattern.READ_READ,
                      mode=Mode.USER_KERNEL, n_counters=4, tsc=False),
    MeasurementConfig(processor="K8", infra="PLpm", pattern=Pattern.READ_STOP,
                      mode=Mode.USER_KERNEL, n_counters=3),
    MeasurementConfig(processor="CD", infra="PHpc", pattern=Pattern.START_STOP,
                      mode=Mode.USER, n_counters=2),
)

#: Loop witnesses run on P3: at its 1 GHz clock a warm-up margin
#: (150 cycles) is 150 ns, so a seed whose deadline falls inside one is
#: quick to find.
P3_LOOP = MeasurementConfig(processor="P3", infra="pc",
                            pattern=Pattern.START_READ,
                            mode=Mode.USER_KERNEL)
#: Under perfmon, P3 places the loop at -O0 where it runs about 25 µs
#: longer than at -O1.
P3_PLACED = replace(P3_LOOP, infra="pm", opt_level=OptLevel.O1)
P3_PLACED_ELSEWHERE = replace(P3_PLACED, opt_level=OptLevel.O0)

MICROSUITE = (
    BenchmarkSpec.chain(500),
    BenchmarkSpec.branches(500),
    BenchmarkSpec.strided(640),
    BenchmarkSpec("syscalls", (3,)),
)


class TwoLoops(Benchmark):
    """The paper's loop, run twice: a run that draws two warm-ups.  No
    benchmark of the program does, so this one stands in for a run
    whose end clock one warm-up margin does not bound."""

    name = "two-loops"

    def __init__(self, iterations: int) -> None:
        self.params = (iterations,)
        self._loop = LoopBenchmark(iterations)

    def expected_work(self):
        return self._loop.expected_work() * 2

    def run(self, machine, address):
        self._loop.run(machine, address)
        self._loop.run(machine, address)

    @property
    def code_size_bytes(self):
        return self._loop.code_size_bytes


# -- reference runs ----------------------------------------------------------

#: job -> (result, (ticks, I/O interrupts, wall clock) at the end)
_ALONE: dict[MeasurementJob, tuple] = {}


def alone(job: MeasurementJob) -> tuple:
    """``job`` run alone on a newly built machine with no recordings:
    its result, and its machine's interrupt counts and wall clock at
    the end.  A pure function of the job, so it is computed once."""
    found = _ALONE.get(job)
    if found is None:
        saved = measurement._resident, measurement._RECORDINGS
        measurement._resident = measurement._Resident()
        measurement._RECORDINGS = {}
        try:
            result = job.execute()
            (machine,) = measurement._resident.machines.values()
        finally:
            measurement._resident, measurement._RECORDINGS = saved
        controller = machine.controller
        found = _ALONE[job] = (result, (
            controller.ticks_delivered, controller.io_delivered,
            machine.core.wall_s,
        ))
    return found


def interrupted(job: MeasurementJob) -> bool:
    ticks, io, _ = alone(job)[1]
    return bool(ticks or io)


def end_s(job: MeasurementJob) -> float:
    return alone(job)[1][2]


def margin_s(config: MeasurementConfig) -> float:
    """The largest loop warm-up, in seconds at the boot clock."""
    return LOOP_WARMUP_CYCLES / ALL_PROCESSORS[config.processor].p_states_hz()[-1]


def seeded(config: MeasurementConfig, benchmark: BenchmarkSpec, seeds):
    return (MeasurementJob(replace(config, seed=seed), benchmark)
            for seed in seeds)


def witness(config, benchmark, wanted, seeds=range(10_000, 2_000_000)):
    """The first job of ``config`` and ``benchmark`` over ``seeds``
    whose first interrupt deadline and run satisfy ``wanted``.  The
    deadline comes from the reset's own draws, quick enough to scan
    many seeds; the found one is checked against a newly built
    machine."""
    build = boot_image(config.processor, config.substrate).build
    for job in seeded(config, benchmark, seeds):
        deadline = first_deadline_s(job.config.seed, build,
                                    config.io_interrupts)
        if wanted(deadline, job):
            machine = Machine(config.processor, config.substrate,
                              seed=job.config.seed,
                              io_interrupts=config.io_interrupts)
            assert machine.controller.next_deadline_s == deadline
            return job
    raise AssertionError(f"no witness seed for {config}")


def recorded(job: MeasurementJob) -> bool:
    """Run ``job`` with no recording of its key; True when its run is
    now the recording (it stays one for the module)."""
    config = job.config
    key = measurement._replay_key(
        config, job.benchmark.build(), DEFAULT_GCC.benchmark_address(config))
    measurement._RECORDINGS.pop(key, None)
    job.execute()
    return key in measurement._RECORDINGS


@pytest.fixture(scope="module")
def witnesses() -> tuple[tuple[MeasurementJob, MeasurementJob], ...]:
    """Pairs of a first job and a second one that a replay of the first
    job's recording would answer wrongly.  Where the first job is
    recorded, it stays the recording of its key for the module."""
    with mock.patch.dict(plan._BENCHMARK_KINDS, {"two-loops": TwoLoops}):
        yield _witnesses()


def _witnesses():
    pairs = []
    eps = DEADLINE_EPSILON_S

    # Null runs: the second job's first deadline falls inside the first
    # job's recorded run.
    null = BenchmarkSpec.null()
    for config in WITNESS_CONFIGS:
        first = next(job for job in seeded(config, null, range(1000))
                     if not interrupted(job))
        assert recorded(first)
        inside = end_s(first) + eps
        pairs.append((first, witness(
            config, null, lambda deadline, job: deadline <= inside)))

    # A loop: the second job's first deadline falls between the recorded
    # end and the horizon, and its own run reaches it.
    loop = BenchmarkSpec.loop(25_000)
    first = min((job for job in seeded(P3_LOOP, loop, range(40))
                 if not interrupted(job)), key=end_s)
    assert recorded(first)
    end, horizon = end_s(first), end_s(first) + margin_s(P3_LOOP)
    pairs.append((first, witness(
        P3_LOOP, loop, lambda deadline, job:
        end + eps < deadline <= horizon + eps and interrupted(job))))

    # Placement: the same loop placed elsewhere runs longer, and the
    # second job's deadline falls past the first job's horizon but
    # inside its own run.
    first = next(job for job in seeded(P3_PLACED, loop, range(1000))
                 if not interrupted(job))
    assert recorded(first)
    horizon = end_s(first) + margin_s(P3_PLACED)
    second = witness(
        P3_PLACED_ELSEWHERE, loop, lambda deadline, job:
        horizon + eps < deadline <= horizon + 20e-6 and interrupted(job))
    assert DEFAULT_GCC.benchmark_address(first.config) \
        != DEFAULT_GCC.benchmark_address(second.config)
    pairs.append((first, second))

    # A loop counting cycles: two interrupt-free runs whose cycle counts
    # differ by their warm-ups.  It is never recorded.
    short = BenchmarkSpec.loop(1_000)
    counting_cycles = replace(P3_LOOP, n_counters=2)
    first = next(job for job in seeded(counting_cycles, short, range(1000))
                 if not interrupted(job))
    assert not recorded(first)
    horizon = end_s(first) + margin_s(counting_cycles)
    pairs.append((first, witness(
        counting_cycles, short, lambda deadline, job:
        deadline > horizon + eps and not interrupted(job)
        and alone(job)[0].deltas != alone(first)[0].deltas)))

    # Two warm-ups: the second job's run ends past the first job's
    # horizon without an interrupt.  Neither is ever recorded.
    two_loops = BenchmarkSpec("two-loops", (1_000,))
    runs = [job for job in seeded(P3_LOOP, two_loops, range(40))
            if not interrupted(job)]
    first, second = min(runs, key=end_s), max(runs, key=end_s)
    assert not recorded(first)
    assert end_s(second) > end_s(first) + margin_s(P3_LOOP)
    pairs.append((first, second))
    return tuple(pairs)


# -- sub-plans ---------------------------------------------------------------

@st.composite
def configs(draw) -> MeasurementConfig:
    processor = draw(st.sampled_from(("PD", "CD", "K8", "P3")))
    infra = draw(st.sampled_from(INFRASTRUCTURES))
    patterns = [pattern for pattern in Pattern
                if not (infra.startswith("PH") and pattern.begins_with_read)]
    counters = min(4, ALL_PROCESSORS[processor].n_prog_counters)
    return MeasurementConfig(
        processor=processor,
        infra=infra,
        pattern=draw(st.sampled_from(patterns)),
        mode=draw(st.sampled_from((Mode.USER, Mode.USER_KERNEL))),
        opt_level=draw(st.sampled_from(tuple(OptLevel))),
        n_counters=draw(st.integers(1, counters)),
        tsc=draw(st.booleans()) if infra == "pc" else True,
    )


def benchmarks(kind: str) -> st.SearchStrategy[BenchmarkSpec]:
    if kind == "null":
        return st.just(BenchmarkSpec.null())
    if kind == "loop":
        return st.sampled_from((1, 1_000, 25_000)).map(BenchmarkSpec.loop)
    return st.sampled_from(MICROSUITE)


@st.composite
def groups(draw, kind: str, min_seeds: int = 1) -> list[MeasurementJob]:
    """One configuration and benchmark under several seeds."""
    config = draw(configs())
    benchmark = draw(benchmarks(kind))
    seeds = draw(st.lists(st.integers(0, 2**31 - 1), min_size=min_seeds,
                          max_size=3, unique=True))
    return [MeasurementJob(replace(config, seed=seed), benchmark)
            for seed in seeds]


@st.composite
def sub_plans(draw, witnesses) -> tuple[list[MeasurementJob], list[bool]]:
    """Drawn jobs, shuffled, each maybe already in the result cache, and
    every witness pair inserted in order and cold.  Returns the jobs and
    which of them the cache holds."""
    kinds = draw(st.lists(st.sampled_from(("null", "null", "loop", "suite")),
                          min_size=2, max_size=6))
    jobs = [job for kind in kinds for job in draw(groups(kind))]
    jobs += draw(groups("loop", min_seeds=2))
    jobs = list(draw(st.permutations(jobs)))
    warmed = draw(st.lists(st.booleans(), min_size=len(jobs),
                           max_size=len(jobs)))
    for first, second in witnesses:
        i = draw(st.integers(0, len(jobs)))
        j = draw(st.integers(i, len(jobs)))
        for index, job in ((j, second), (i, first)):
            jobs.insert(index, job)
            warmed.insert(index, False)
    return jobs, warmed


# -- the property ------------------------------------------------------------

@contextlib.contextmanager
def watched(evidence: Counter):
    """While the body runs: dirty every idle resident machine before each
    job, check each machine handed to a job against a newly built one,
    and log every replay decision.  Yields the list of replays, as
    (job, recording) pairs."""
    current = threading.local()
    replays: list = []
    machine_for = measurement._machine_for
    replays_recording = measurement._replays
    execute = MeasurementJob.execute

    def execute_job(job):
        current.job = job
        return execute(job)

    def checked_machine_for(config, image):
        for idle in list(measurement._resident.machines.values()):
            dirty(idle)
        machine = machine_for(config, image)
        fresh = Machine(seed=config.seed, governor=config.governor,
                        io_interrupts=config.io_interrupts, image=image)
        assert machine_state(machine) == machine_state(fresh), config
        return machine

    def logged_replays(config, image, recording):
        replayed = replays_recording(config, image, recording)
        evidence["replayed" if replayed else "resimulated"] += 1
        if replayed:
            replays.append((current.job, recording))
        return replayed

    with mock.patch.object(measurement, "_machine_for", checked_machine_for), \
            mock.patch.object(measurement, "_replays", logged_replays), \
            mock.patch.object(MeasurementJob, "execute", execute_job):
        yield replays


def check_replays(replays) -> None:
    """Each replayed job's own run took no interrupt and ended at or
    before its recording's horizon."""
    for job, recording in replays:
        ticks, io, wall_s = alone(job)[1]
        assert (ticks, io) == (0, 0), job
        assert wall_s <= recording.horizon_s, job


def check(jobs, warmed, evidence) -> None:
    """Run ``jobs`` as one plan; each result must be its job's alone."""
    references = [alone(job) for job in jobs]
    cache = ResultCache()
    for job, (result, _), warm in zip(jobs, references, warmed):
        if warm:
            cache.put(job.cache_token(), result)
    executor = Executor(cache=cache)
    with watched(evidence) as replays:
        results = executor.map(jobs)
    for job, result, (expected, _) in zip(jobs, results, references):
        assert result == expected, job
    check_replays(replays)
    evidence["jobs"] += len(jobs) - sum(warmed)
    evidence["interrupted"] += sum(
        1 for (_, end), warm in zip(references, warmed)
        if not warm and (end[0] or end[1])
    )


def independence(witnesses, evidence, examples, shrink=False):
    """The property over ``examples`` drawn sub-plans (deterministic)."""
    @settings(
        max_examples=examples, derandomize=True, database=None,
        deadline=None, report_multiple_bugs=False,
        phases=tuple(Phase) if shrink else (Phase.explicit, Phase.generate),
        suppress_health_check=list(HealthCheck),
    )
    @given(data=st.data())
    def prop(data):
        jobs, warmed = data.draw(sub_plans(witnesses))
        check(jobs, warmed, evidence)

    prop()


def test_every_result_is_its_job_run_alone(witnesses):
    evidence = Counter()
    independence(witnesses, evidence, examples=60, shrink=True)
    # Every path ran: replays, recorded configurations re-simulated
    # because the seed's deadline fell inside the recording, and jobs
    # that took interrupts.
    assert evidence["replayed"] > 0, evidence
    assert evidence["resimulated"] > 0, evidence
    assert evidence["interrupted"] > 0, evidence


def test_on_threads(witnesses):
    """Four threads, more than the host has cores, with a short switch
    interval: each keeps its own resident machines, and the recordings
    are shared."""
    pairs = [list(pair) for pair in witnesses]
    plans = [pairs[0] + pairs[1], pairs[1][::-1] + pairs[2],
             pairs[2][::-1] + pairs[0][::-1], pairs[0] + pairs[2]]
    plans = [jobs * 3 for jobs in plans]
    expected = [[alone(job)[0] for job in jobs] for jobs in plans]
    results, errors, evidence = [None] * len(plans), [], Counter()

    def run(index, jobs):
        try:
            results[index] = Executor(cache=None).map(jobs)
        except BaseException as exc:  # reported from the main thread
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(index, jobs))
               for index, jobs in enumerate(plans)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with watched(evidence) as replays:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert results == expected
    check_replays(replays)
    assert evidence["replayed"] > 0


def test_alone_in_a_new_process(witnesses):
    """A handful of drawn jobs and the witnesses, each run alone in a
    subprocess that has done nothing else, give the in-process
    reference results."""
    jobs = [job for pair in witnesses for job in pair]

    @settings(max_examples=2, derandomize=True, database=None,
              deadline=None, suppress_health_check=list(HealthCheck))
    @given(plan=sub_plans(witnesses))
    def draw(plan):
        jobs.extend(plan[0][:4])

    draw()
    # The two-loop benchmark is this module's own: a new process
    # cannot build it.
    jobs = [job for job in jobs if job.benchmark.kind != "two-loops"]
    script = (
        "import pickle, sys\n"
        "from repro.core import measurement\n"
        "results = []\n"
        "for job in pickle.load(sys.stdin.buffer):\n"
        "    measurement._resident = measurement._Resident()\n"
        "    measurement._RECORDINGS = {}\n"
        "    results.append(job.execute())\n"
        "pickle.dump(results, sys.stdout.buffer)\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), env.get("PYTHONPATH", "")])
    out = subprocess.run(
        [sys.executable, "-c", script], input=pickle.dumps(jobs),
        capture_output=True, check=True, env=env, timeout=120,
    ).stdout
    assert pickle.loads(out) == [alone(job)[0] for job in jobs]


def test_a_tick_that_draws_nothing_is_not_recorded(monkeypatch):
    """P3's kernels have no skid, so with I/O interrupts off a timer
    tick draws nothing there: only the tick count keeps such a run from
    being recorded (and replayed without its handler's instructions)."""
    config = MeasurementConfig(processor="P3", infra="pc",
                               pattern=Pattern.READ_READ,
                               mode=Mode.USER_KERNEL, tsc=False,
                               io_interrupts=False)
    null = BenchmarkSpec.null()
    ticks, _, wall_s = alone(MeasurementJob(replace(config, seed=0), null))[1]
    assert ticks == 0
    seed = next(
        seed for seed in range(1, 200_000)
        if Machine("P3", "perfctr", seed=seed, io_interrupts=False)
        .controller.next_deadline_s <= wall_s
    )
    monkeypatch.setattr(measurement, "_RECORDINGS", {})
    assert MeasurementJob(replace(config, seed=seed), null).execute().ticks > 0
    assert measurement._RECORDINGS == {}


# -- refutations: each break must make the property fail ---------------------

def _reset_keeping(cls, restore):
    """``cls.reset`` with ``restore(self, saved)`` undoing part of it."""
    original = cls.reset

    def leaky(self, *args):
        saved = restore(self, None)
        original(self, *args)
        restore(self, saved)

    return leaky


def _keep_rdpmc(core, saved):
    if saved is None:
        return getattr(core, "user_rdpmc_enabled", False)
    core.user_rdpmc_enabled = saved


def _keep_tsc_and_fixed_filters(pmu, saved):
    if saved is None:
        return getattr(pmu, "_tsc", 0.0), [fixed.priv for fixed in pmu.fixed]
    pmu._tsc, privs = saved
    for fixed, priv in zip(pmu.fixed, privs):
        fixed.priv = priv
    pmu._rebind()


_draws = measurement._draws
_replay_key = measurement._replay_key

BREAKS = {
    "reset-keeps-user-rdpmc": lambda mp: mp.setattr(
        Core, "reset", _reset_keeping(Core, _keep_rdpmc)),
    "reset-keeps-tsc-and-fixed-filters": lambda mp: mp.setattr(
        Pmu, "reset", _reset_keeping(Pmu, _keep_tsc_and_fixed_filters)),
    "replay-skips-deadline-test": lambda mp: mp.setattr(
        measurement, "_replays", lambda config, image, recording: True),
    "records-runs-that-drew": lambda mp: mp.setattr(
        measurement, "_draws", lambda rng, boot_state: 0),
    "horizon-without-warmup-margin": lambda mp: mp.setattr(
        measurement, "_horizon", lambda machine: machine.core.wall_s),
    "records-loops-that-count-cycles": lambda mp: mp.setattr(
        measurement, "_work_derived", lambda config: True),
    "records-runs-that-drew-twice": lambda mp: mp.setattr(
        measurement, "_draws",
        lambda rng, boot_state: min(1, _draws(rng, boot_state))),
    "keys-code-without-its-address": lambda mp: mp.setattr(
        measurement, "_replay_key",
        lambda config, benchmark, address: _replay_key(config, benchmark, None)),
}


@pytest.mark.parametrize("name", sorted(BREAKS))
def test_break_is_refuted(witnesses, monkeypatch, name):
    # Start from no recordings, so that the witnesses are recorded (or
    # not) by the broken code, and what it records does not outlive
    # the test.
    monkeypatch.setattr(measurement, "_RECORDINGS", {})
    BREAKS[name](monkeypatch)
    with pytest.raises(AssertionError):
        independence(witnesses, Counter(), examples=25)
