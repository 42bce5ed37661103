"""Measurement independence: a result depends only on its job.

``run_measurement`` resets one resident machine per boot image for
every job, and answers an interrupt-free job from a recorded run of its
configuration.  State a reset leaves behind, or a recording replayed
where the job's own run would differ, could show only in some orders of
jobs, and the goldens check two.  So Hypothesis draws sub-plans from
the job kinds of ``reproduce all`` — null sweeps over every
infrastructure, pattern, both modes, the TSC on and off and 1-4
counters; short loops; the microsuite — with several seeds per
configuration, shuffles them, and runs them with random batch caps and
a partly warmed result cache; a few also run on two warm workers, some
on four threads, and a handful in a subprocess that does nothing else.
Every result must equal the result of the same job run alone on a newly
built machine with no recordings.
While a sub-plan runs:

* every reset must leave the state of a newly built machine, although
  every idle resident machine is dirtied before each job with state of
  every kind a run can leave;
* every replayed job's own run, alone, must have delivered no
  interrupt and ended at exactly the recorded wall clock and cycle.

Each sub-plan carries a pair of witness jobs: one whose run is
recorded, and one whose seed's first deadline falls inside that
recording.  So the replay, the re-simulation and the interrupt paths
all run, and the property checks that they did.  Four breaks of the
mechanism, each applied with ``monkeypatch``, make it fail.
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

from repro.backend import make_backend, warm_available
from repro.backend.inline import InlineBackend
from repro.core import measurement
from repro.core.compiler import DEFAULT_GCC, OptLevel
from repro.core.config import INFRASTRUCTURES, MeasurementConfig, Mode, Pattern
from repro.cpu.core import DEADLINE_EPSILON_S, Core
from repro.cpu.models import ALL_PROCESSORS
from repro.cpu.pmu import Pmu
from repro.exec import Executor
from repro.exec.cache import ResultCache
from repro.exec.plan import BenchmarkSpec, MeasurementJob
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

MICROSUITE = (
    BenchmarkSpec.chain(500),
    BenchmarkSpec.branches(500),
    BenchmarkSpec.strided(640),
    BenchmarkSpec("syscalls", (3,)),
)


# -- reference runs ----------------------------------------------------------

#: job -> (result, (ticks, I/O interrupts, wall clock, cycle) at the end)
_ALONE: dict[MeasurementJob, tuple] = {}


def alone(job: MeasurementJob) -> tuple:
    """``job`` run alone on a newly built machine with no recordings:
    its result, and its machine's interrupt counts and clocks at the
    end.  A pure function of the job, so it is computed once."""
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
        controller, core = machine.controller, machine.core
        found = _ALONE[job] = (result, (
            controller.ticks_delivered, controller.io_delivered,
            core.wall_s, core.cycle,
        ))
    return found


@pytest.fixture(scope="module")
def witnesses() -> tuple[tuple[MeasurementJob, MeasurementJob], ...]:
    """Per witness configuration, a job whose run is recorded (it stays
    recorded for the module) and a job whose seed's first deadline
    falls inside that recording."""
    pairs = []
    null = BenchmarkSpec.null()
    for config in WITNESS_CONFIGS:
        key = measurement._replay_key(config, null.build(), DEFAULT_GCC)
        for seed in range(1000):
            recorded = MeasurementJob(replace(config, seed=seed), null)
            recorded.execute()
            recording = measurement._RECORDINGS.get(key)
            if recording is not None:
                break
        window = recording.wall_s + DEADLINE_EPSILON_S
        colliding = next(
            seed for seed in range(10_000, 200_000)
            if Machine(config.processor, config.substrate, seed=seed)
            .controller.next_deadline_s <= window
        )
        pairs.append((recorded,
                      MeasurementJob(replace(config, seed=colliding), null)))
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
def sub_plans(draw, witnesses) -> list[MeasurementJob]:
    kinds = draw(st.lists(st.sampled_from(("null", "null", "loop", "suite")),
                          min_size=2, max_size=6))
    jobs = [job for kind in kinds for job in draw(groups(kind))]
    jobs += draw(groups("loop", min_seeds=2))
    jobs += draw(st.sampled_from(witnesses))
    return draw(st.permutations(jobs))


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

    def checked_machine_for(config):
        for idle in list(measurement._resident.machines.values()):
            dirty(idle)
        machine = machine_for(config)
        fresh = Machine(seed=config.seed, governor=config.governor,
                        io_interrupts=config.io_interrupts,
                        image=machine.image)
        assert machine_state(machine) == machine_state(fresh), config
        return machine

    def logged_replays(machine, recording):
        replayed = replays_recording(machine, recording)
        evidence["replayed" if replayed else "resimulated"] += 1
        if replayed:
            replays.append((current.job, recording))
        return replayed

    with mock.patch.object(measurement, "_machine_for", checked_machine_for), \
            mock.patch.object(measurement, "_replays", logged_replays), \
            mock.patch.object(MeasurementJob, "execute", execute_job):
        yield replays


def check_replays(replays) -> None:
    """Each replayed job's own run took no interrupt and ended exactly
    where its recording ends."""
    for job, recording in replays:
        ticks, io, wall_s, cycle = alone(job)[1]
        assert (ticks, io) == (0, 0), job
        assert (wall_s, cycle) == (recording.wall_s, recording.cycle), job


def check(jobs, cap, warmed, evidence, backend=None) -> None:
    """Run ``jobs`` as one plan; each result must be its job's alone."""
    references = [alone(job) for job in jobs]
    cache = ResultCache()
    for job, (result, _), warm in zip(jobs, references, warmed):
        if warm:
            cache.put(job.cache_token(), result)
    executor = Executor(backend or InlineBackend(), cache=cache,
                        batch_size=cap)
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


def independence(witnesses, evidence, examples, shrink=False, backend=None):
    """The property over ``examples`` drawn sub-plans (deterministic)."""
    @settings(
        max_examples=examples, derandomize=True, database=None,
        deadline=None, report_multiple_bugs=False,
        phases=tuple(Phase) if shrink else (Phase.explicit, Phase.generate),
        suppress_health_check=list(HealthCheck),
    )
    @given(data=st.data())
    def prop(data):
        jobs = data.draw(sub_plans(witnesses))
        cap = data.draw(st.integers(1, len(jobs)))
        warmed = data.draw(st.lists(st.booleans(), min_size=len(jobs),
                                    max_size=len(jobs)))
        check(jobs, cap, warmed, evidence, backend)

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


@pytest.mark.skipif(not warm_available(),
                    reason="warm backend needs the fork start method")
def test_on_two_warm_workers(witnesses):
    backend = make_backend("warm", workers=2)
    try:
        independence(witnesses, Counter(), examples=3, backend=backend)
    finally:
        backend.shutdown(grace=2.0)


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
            results[index] = Executor(InlineBackend(), cache=None).map(jobs)
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
        jobs.extend(plan[:4])

    draw()
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
    ticks, _, wall_s, _ = alone(MeasurementJob(replace(config, seed=0), null))[1]
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


BREAKS = {
    "reset-keeps-user-rdpmc": lambda mp: mp.setattr(
        Core, "reset", _reset_keeping(Core, _keep_rdpmc)),
    "reset-keeps-tsc-and-fixed-filters": lambda mp: mp.setattr(
        Pmu, "reset", _reset_keeping(Pmu, _keep_tsc_and_fixed_filters)),
    "replay-skips-deadline-test": lambda mp: mp.setattr(
        measurement, "_replays", lambda machine, recording: True),
    "records-runs-that-drew": lambda mp: mp.setattr(
        measurement, "_drew", lambda machine, boot_state: False),
}


@pytest.mark.parametrize("name", sorted(BREAKS))
def test_break_is_refuted(witnesses, monkeypatch, name):
    # Recordings a broken run makes must not outlive the test.
    monkeypatch.setattr(measurement, "_RECORDINGS",
                        dict(measurement._RECORDINGS))
    BREAKS[name](monkeypatch)
    with pytest.raises(AssertionError):
        independence(witnesses, Counter(), examples=25)
