"""The paper's Section 8 guidelines as a programmatic advisor.

A downstream user of a counter infrastructure wants an answer, not a
paper: *given what I need to measure, how should I configure things?*
:func:`advise` runs a calibration sweep on the requested machine class
and returns a concrete recommendation — infrastructure, pattern, TSC
setting, expected residual error — together with the checks the paper's
guidelines mandate (pinned governor, suspicious-events warning,
duration-error estimate).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.analysis.stats import box_summary
from repro.core.benchmarks import NullBenchmark
from repro.core.config import INFRASTRUCTURES, MeasurementConfig, Mode, Pattern
from repro.core.measurement import run_measurement
from repro.core.sweep import config_seed
from repro.cpu.events import Event
from repro.cpu.frequency import Governor
from repro.errors import ConfigurationError, UnsupportedPatternError
from repro.kernel.calibration import KERNEL_BUILDS
from repro.cpu.models import ALL_PROCESSORS

#: Cycle-domain events whose counts placement effects can dominate
#: (paper, Section 6): recommending them triggers a warning.
SUSPICIOUS_EVENTS = frozenset(
    {
        Event.CYCLES,
        Event.BUS_CYCLES,
        Event.BRANCH_MISSES,
        Event.L1I_MISSES,
        Event.ITLB_MISSES,
        Event.DCACHE_MISSES,
    }
)


@dataclass(frozen=True)
class Recommendation:
    """The advisor's output."""

    processor: str
    mode: Mode
    infra: str
    pattern: Pattern
    tsc: bool
    expected_fixed_error: float
    duration_error_per_iteration: float
    warnings: tuple[str, ...] = field(default=())

    def as_config(self, **overrides) -> MeasurementConfig:
        """A ready-to-run configuration embodying the recommendation."""
        kwargs = dict(
            processor=self.processor,
            infra=self.infra,
            pattern=self.pattern,
            mode=self.mode,
            tsc=self.tsc,
        )
        kwargs.update(overrides)
        return MeasurementConfig(**kwargs)

    def render(self) -> str:
        lines = [
            f"measure with {self.infra} using the {self.pattern.value} "
            f"pattern (TSC {'on' if self.tsc else 'off'})",
            f"expected fixed cost: ~{self.expected_fixed_error:.0f} "
            f"{self.mode.value} instructions per measurement",
            f"expected duration error: ~{self.duration_error_per_iteration:.2g}"
            " instructions per benchmark instruction",
        ]
        lines.extend(f"warning: {w}" for w in self.warnings)
        return "\n".join(lines)


def advise(
    processor: str = "CD",
    mode: Mode = Mode.USER,
    event: Event = Event.INSTR_RETIRED,
    candidate_infras: tuple[str, ...] = INFRASTRUCTURES,
    governor: Governor = Governor.PERFORMANCE,
    calibration_runs: int = 5,
    base_seed: int = 0,
) -> Recommendation:
    """Recommend a measurement setup for one processor and mode.

    Runs null-benchmark calibrations across the candidate
    infrastructures and patterns (the paper's methodology, in miniature)
    and picks the configuration with the smallest median fixed error.
    """
    if processor not in ALL_PROCESSORS:
        raise ConfigurationError(f"unknown processor {processor!r}")
    if mode is Mode.KERNEL:
        raise ConfigurationError(
            "kernel-only analysts do not need user-level access "
            "infrastructures (paper, Section 2.5)"
        )

    best: tuple[float, str, Pattern] | None = None
    for infra in candidate_infras:
        for pattern in Pattern:
            errors = []
            for run_index in range(calibration_runs):
                config = MeasurementConfig(
                    processor=processor,
                    infra=infra,
                    pattern=pattern,
                    mode=mode,
                    seed=config_seed(
                        base_seed, "advise", infra, pattern.short, run_index
                    ),
                    governor=governor,
                )
                try:
                    errors.append(
                        float(run_measurement(config, NullBenchmark()).error)
                    )
                except UnsupportedPatternError:
                    # PAPI high level has no rr/ro (paper, Table 2).
                    errors = []
                    break
            if not errors:
                continue
            median = box_summary(np.asarray(errors)).median
            if best is None or median < best[0]:
                best = (median, infra, pattern)

    if best is None:
        raise ConfigurationError("no candidate infrastructure is usable")
    median, infra, pattern = best

    # Duration-error estimate from the chosen substrate's kernel build.
    build = KERNEL_BUILDS[
        "perfmon" if infra.endswith("pm") else "perfctr"
    ]
    uarch = ALL_PROCESSORS[processor]
    ticks_per_instruction = build.hz * uarch.loop_base_cpi / uarch.freq_hz
    duration_error = (
        build.tick_instructions() * ticks_per_instruction
        if mode is Mode.USER_KERNEL
        else 0.0
    )

    warnings = []
    if governor is Governor.ONDEMAND:
        warnings.append(
            "the ondemand governor retunes the clock mid-run; pin "
            "'performance' or 'powersave' (Section 8, guideline 1)"
        )
    if event in SUSPICIOUS_EVENTS:
        warnings.append(
            f"{event.value} is a micro-architectural event: code "
            "placement effects can dwarf infrastructure error "
            "(Section 8, 'be suspicious of cycle counts')"
        )
    if mode is Mode.USER_KERNEL:
        warnings.append(
            "user+kernel counts grow with measurement duration "
            f"(~{duration_error:.2g} instructions per benchmark "
            "instruction from interrupt handlers)"
        )

    return Recommendation(
        processor=processor,
        mode=mode,
        infra=infra,
        pattern=pattern,
        tsc=True,
        expected_fixed_error=median,
        duration_error_per_iteration=duration_error,
        warnings=tuple(warnings),
    )
