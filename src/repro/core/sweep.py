"""Factorial sweeps over the study's configuration space.

:func:`iter_configs` is the single source of truth for the study's
factor space: it enumerates a cartesian product of factors and skips
the combinations that cannot exist (PAPI high level × read patterns;
more counters than a processor has; TSC-off outside direct perfctr),
deriving a stable per-cell seed for each.

Execution lives in :mod:`repro.exec`: :meth:`SweepSpec.plan` turns a
spec into a declarative :class:`~repro.exec.plan.MeasurementPlan`, and
:func:`run_sweep` remains as the one-call convenience that plans the
sweep and runs it on the currently configured executor.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator

from repro.analysis.table import ResultTable
from repro.core.config import INFRASTRUCTURES, MeasurementConfig, Mode, Pattern
from repro.core.compiler import OptLevel
from repro.cpu.models import ALL_PROCESSORS
from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.exec.executor import Executor
    from repro.exec.plan import BenchmarkSpec, MeasurementPlan


@dataclass(frozen=True)
class SweepSpec:
    """The factor levels of one sweep."""

    processors: tuple[str, ...] = ("PD", "CD", "K8")
    infras: tuple[str, ...] = INFRASTRUCTURES
    patterns: tuple[Pattern, ...] = tuple(Pattern)
    modes: tuple[Mode, ...] = (Mode.USER, Mode.USER_KERNEL)
    opt_levels: tuple[OptLevel, ...] = tuple(OptLevel)
    n_counters: tuple[int, ...] = (1,)
    tsc: tuple[bool, ...] = (True,)
    repeats: int = 3
    base_seed: int = 0
    io_interrupts: bool = True

    def __post_init__(self) -> None:
        if self.repeats < 1:
            raise ConfigurationError(f"repeats must be >= 1, got {self.repeats}")

    def plan(self, benchmark: "BenchmarkSpec | None" = None) -> "MeasurementPlan":
        """This sweep as a declarative plan (one job per configuration)."""
        from repro.exec.plan import sweep_plan

        return sweep_plan(self, benchmark)


def config_seed(base_seed: int, *factors: object) -> int:
    """A stable per-configuration seed: same factors, same randomness."""
    text = "|".join(str(f) for f in (base_seed, *factors))
    return zlib.crc32(text.encode("utf-8"))


def iter_configs(spec: SweepSpec) -> Iterator[MeasurementConfig]:
    """All valid configurations of the sweep, in deterministic order."""
    for processor in spec.processors:
        available = ALL_PROCESSORS[processor].n_prog_counters
        for infra in spec.infras:
            for pattern in spec.patterns:
                if infra.startswith("PH") and pattern.begins_with_read:
                    continue  # Table 2: high-level read resets
                for mode in spec.modes:
                    for opt in spec.opt_levels:
                        for n in spec.n_counters:
                            if n > available:
                                continue
                            for tsc in spec.tsc:
                                if not tsc and infra != "pc":
                                    continue
                                for repeat in range(spec.repeats):
                                    seed = config_seed(
                                        spec.base_seed, processor, infra,
                                        pattern.short, mode.value, opt.value,
                                        n, tsc, repeat,
                                    )
                                    yield MeasurementConfig(
                                        processor=processor,
                                        infra=infra,
                                        pattern=pattern,
                                        mode=mode,
                                        opt_level=opt,
                                        n_counters=n,
                                        tsc=tsc,
                                        seed=seed,
                                        io_interrupts=spec.io_interrupts,
                                    )


def run_sweep(
    spec: SweepSpec,
    benchmark: "BenchmarkSpec | None" = None,
    executor: "Executor | None" = None,
) -> ResultTable:
    """Run every configuration of the sweep; one table row each.

    Convenience wrapper over the plan/executor split: equivalent to
    ``(executor or Executor()).run(spec.plan(benchmark))``.
    """
    from repro.exec.executor import Executor

    runner = executor if executor is not None else Executor()
    return runner.run(spec.plan(benchmark))
