"""Ablations of the simulation's calibrated mechanisms.

DESIGN.md commits to three mechanism → result links; each ablation
switches one mechanism off (or varies its parameter) and checks the
corresponding paper result follows it:

* timer frequency (CONFIG_HZ) ⇒ the user+kernel duration-error slope
  (Figures 7/9 depend on HZ × handler size);
* the BTB-alias placement model ⇒ cycle bimodality (Figure 11);
* the interrupt-boundary skid ⇒ the tiny user-mode drift (Figure 8).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.analysis.regression import LinearFit, fit_line
from repro.core.benchmarks import LoopBenchmark
from repro.core.sweep import config_seed
from repro.cpu.events import Event, PrivFilter
from repro.cpu.models import microarch
from repro.exec import Executor, stable_token
from repro.kernel.calibration import PERFCTR_BUILD, KernelBuildConfig
from repro.kernel.system import Machine
from repro.perfctr.libperfctr import LibPerfctr

_SIZES = (1, 250_000, 500_000, 750_000, 1_000_000)


def _loop_error(
    machine: Machine, size: int, priv: PrivFilter
) -> int:
    """One start-read measurement of the loop on a booted machine."""
    lib = LibPerfctr(machine)
    lib.open()
    lib.control(((Event.INSTR_RETIRED, priv),), tsc_on=True)
    benchmark = LoopBenchmark(size)
    benchmark.run(machine, address=0x0804_9000)
    measured = lib.read().pmcs[0]
    return measured - benchmark.expected_instructions


@dataclass(frozen=True)
class _SlopeJob:
    """One loop-error measurement under an ablated kernel build."""

    build: KernelBuildConfig
    priv: PrivFilter
    size: int
    seed: int
    processor: str

    def execute(self) -> int:
        machine = Machine(
            processor=self.processor,
            kernel=self.build,
            seed=self.seed,
            io_interrupts=False,
        )
        return _loop_error(machine, self.size, self.priv)

    def cache_token(self) -> str:
        return stable_token(
            "ablation-slope", repr(self.build), self.priv.value,
            self.size, self.seed, self.processor,
        )


def _slope_for_build(
    build: KernelBuildConfig,
    priv: PrivFilter,
    repeats: int,
    base_seed: int,
    processor: str = "CD",
) -> LinearFit:
    jobs = [
        _SlopeJob(
            build=build, priv=priv, size=size,
            seed=config_seed(base_seed, build.name, size, repeat),
            processor=processor,
        )
        for size in _SIZES
        for repeat in range(repeats)
    ]
    errors = Executor().map(jobs)
    return fit_line([job.size for job in jobs], errors)


def duration_slope_vs_hz(
    hzs: tuple[int, ...] = (100, 250, 1000),
    repeats: int = 12,
    base_seed: int = 0,
) -> dict[int, float]:
    """u+k duration-error slope under different CONFIG_HZ settings.

    The mechanism claim: slope = tick handler instructions × ticks per
    iteration, so it must scale linearly with HZ.
    """
    slopes = {}
    for hz in hzs:
        build = replace(PERFCTR_BUILD, name=f"perfctr-hz{hz}", hz=hz)
        slopes[hz] = _slope_for_build(
            build, PrivFilter.ALL, repeats, base_seed
        ).slope
    return slopes


def skid_ablation(
    repeats: int = 25, base_seed: int = 0
) -> dict[str, float]:
    """User-mode duration slope with and without the boundary skid.

    With the skid disabled the user-mode count is exact regardless of
    duration — the slope collapses to zero, confirming the skid is the
    *only* source of Figure 8's drift.
    """
    with_skid = _slope_for_build(
        PERFCTR_BUILD, PrivFilter.USR, repeats, base_seed
    ).slope
    no_skid_build = replace(
        PERFCTR_BUILD, name="perfctr-noskid", skid={}
    )
    without = _slope_for_build(
        no_skid_build, PrivFilter.USR, repeats, base_seed
    ).slope
    return {"with_skid": with_skid, "without_skid": without}


@dataclass(frozen=True)
class _PlacementJob:
    """One loop CPI at an address offset, with or without BTB aliasing."""

    label: str
    offset: int
    seed: int

    def execute(self) -> float:
        uarch = microarch("K8")
        if self.label == "flat":
            uarch = replace(uarch, alias_penalties=(0.0,))
        machine = Machine(
            processor=uarch,
            kernel="perfctr",
            seed=self.seed,
            io_interrupts=False,
            loop_warmup=False,
        )
        machine.controller.enabled = False
        lib = LibPerfctr(machine)
        lib.open()
        lib.control(((Event.CYCLES, PrivFilter.ALL),), tsc_on=True)
        before = lib.read().pmcs[0]
        LoopBenchmark(100_000).run(machine, address=0x0804_9000 + self.offset)
        after = lib.read().pmcs[0]
        return round((after - before) / 100_000, 1)

    def cache_token(self) -> str:
        return stable_token(
            "ablation-placement", self.label, self.offset, self.seed
        )


def placement_ablation(base_seed: int = 0) -> dict[str, tuple[float, ...]]:
    """K8 loop CPIs with the BTB-alias model on vs flattened.

    With alias penalties removed, every placement runs at the base CPI
    and Figure 11's bimodality disappears — the placement model is the
    sole source of the c=2i / c=3i split.
    """
    results: dict[str, tuple[float, ...]] = {}
    for label in ("aliasing", "flat"):
        # Sweep addresses the way different binaries would place the loop.
        jobs = [
            _PlacementJob(
                label=label, offset=offset,
                seed=config_seed(base_seed, label, offset),
            )
            for offset in range(0, 64 * 16, 16)
        ]
        cpis = Executor().map(jobs)
        results[label] = tuple(sorted(set(cpis)))
    return results
