"""Extension: multiplexing accuracy (Mytkowicz et al., MICRO'07).

Measure four events on the Core 2 Duo's two programmable counters by
time-slicing two event groups.  Two findings:

* on a *uniform* workload the time-interpolation assumption holds and
  estimates land within a fraction of a percent;
* on a *phased* workload (an ALU phase followed by a load phase),
  accuracy depends on slice granularity: with one slice per phase each
  group observes only one phase, and events concentrated in a phase the
  group missed (or monopolized) extrapolate wrongly — the classic
  multiplexing bias, which finer slicing amortizes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.table import ResultTable
from repro.cpu.events import Event, PrivFilter
from repro.exec import BenchmarkSpec, Executor, stable_token
from repro.experiments.base import ExperimentResult
from repro.kernel.system import Machine
from repro.papi.multiplex import run_multiplexed

EVENTS = (
    Event.INSTR_RETIRED,
    Event.BRANCHES_RETIRED,
    Event.LOADS_RETIRED,
    Event.TAKEN_BRANCHES,
)


def _truth(phases: tuple[BenchmarkSpec, ...]) -> dict[Event, int]:
    totals: dict[Event, int] = {event: 0 for event in EVENTS}
    for phase in phases:
        work = phase.build().expected_work()
        totals[Event.INSTR_RETIRED] += work.instructions
        totals[Event.BRANCHES_RETIRED] += work.branches
        totals[Event.LOADS_RETIRED] += work.loads
        totals[Event.TAKEN_BRANCHES] += work.taken_branches
    return totals


@dataclass(frozen=True)
class _MultiplexJob:
    """One multiplexed measurement over a phase sequence."""

    case: str
    phases: tuple[BenchmarkSpec, ...]
    slices: int
    seed: int

    def execute(self) -> dict[str, float]:
        machine = Machine(
            processor="CD", kernel="perfctr", seed=self.seed,
            io_interrupts=False,
        )
        result = run_multiplexed(
            machine, EVENTS, [spec.build() for spec in self.phases],
            priv=PrivFilter.USR, slices_per_phase=self.slices,
        )
        return {event.value: result.estimate(event) for event in EVENTS}

    def cache_token(self) -> str:
        return stable_token(
            "multiplex", self.case,
            *(spec.identity for spec in self.phases),
            self.slices, self.seed,
        )


def run(base_seed: int = 0) -> ExperimentResult:
    """Multiplexed estimates vs ground truth across slice granularities."""
    phased = (BenchmarkSpec.loop(600_000), BenchmarkSpec.strided(450_000))
    cases = [
        ("uniform", (BenchmarkSpec.strided(1_200_000),), 8),
        ("phased/coarse", phased, 1),
        ("phased/fine", phased, 8),
    ]
    jobs = [
        _MultiplexJob(case=name, phases=phases, slices=slices,
                      seed=base_seed + 11)
        for name, phases, slices in cases
    ]
    estimates = Executor().map(jobs)

    table = ResultTable()
    summary: dict = {}
    lines = [
        f"{'case':<14} {'event':<18} {'truth':>12} {'estimate':>14} "
        f"{'rel. error':>10}"
    ]
    for (name, phases, _slices), estimate_by_event in zip(cases, estimates):
        truth = _truth(phases)
        for event in EVENTS:
            estimate = estimate_by_event[event.value]
            true = truth[event]
            rel = (estimate - true) / true if true else 0.0
            table.append(
                {
                    "case": name,
                    "event": event.value,
                    "truth": true,
                    "estimate": estimate,
                    "relative_error": rel,
                }
            )
            summary[(name, event.value)] = rel
            lines.append(
                f"{name:<14} {event.value:<18} {true:>12,} "
                f"{estimate:>14,.0f} {rel:>9.1%}"
            )

    uniform_ok = all(
        abs(summary[("uniform", ev.value)]) < 0.05 for ev in EVENTS
    )
    coarse_bias = abs(summary[("phased/coarse", Event.LOADS_RETIRED.value)])
    fine_bias = abs(summary[("phased/fine", Event.LOADS_RETIRED.value)])
    lines.append(
        f"loads bias: {coarse_bias:.0%} with one slice per phase -> "
        f"{fine_bias:.1%} with eight — finer interleaving amortizes "
        "phase bias"
    )
    summary["uniform_accurate"] = uniform_ok
    summary["coarse_load_bias"] = coarse_bias
    summary["fine_load_bias"] = fine_bias
    summary["fine_slicing_helps"] = fine_bias < coarse_bias / 4
    return ExperimentResult(
        experiment_id="ext:multiplexing",
        title="Time-interpolation accuracy with more events than counters",
        data=table,
        summary=summary,
        paper={"note": "Mytkowicz et al. compare time-interpolation schemes"},
        report_lines=lines,
    )
