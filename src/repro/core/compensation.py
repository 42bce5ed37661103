"""Null-probe error compensation (Najafzadeh & Chaiken, WOSP'04).

The related-work section of the paper describes a methodology the
original authors proposed but never evaluated quantitatively: measure a
*null probe* — an empty region — under the same configuration as the
real measurement, treat its count as the infrastructure's fixed cost,
and subtract it.

This module implements and evaluates that idea on the simulated stack.
It works well for the *fixed* error (the compensated error of an
interrupt-free user-mode measurement is exactly zero, because the
simulated infrastructure's fixed cost is deterministic) and cannot
remove the *duration-dependent* error, which never shows up in a null
probe — quantifying the limitation the paper's Section 5 implies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.stats import box_summary
from repro.core.benchmarks import Benchmark, NullBenchmark
from repro.core.config import MeasurementConfig
from repro.core.measurement import MeasurementResult, run_measurement
from repro.core.sweep import config_seed
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class CompensationModel:
    """The calibrated fixed cost of one measurement configuration."""

    config: MeasurementConfig
    probe_median: float
    probe_min: float
    probe_max: float
    n_probes: int

    @property
    def is_stable(self) -> bool:
        """True when the probe runs agreed closely (no interrupt hit)."""
        return (self.probe_max - self.probe_min) <= max(
            4.0, 0.05 * self.probe_median
        )


def calibrate(
    config: MeasurementConfig, n_probes: int = 15, base_seed: int = 0
) -> CompensationModel:
    """Run null probes under ``config`` and summarize their counts.

    Each probe runs on a machine in the boot state of its own seed —
    the same fresh-process discipline the study itself uses — so the
    median is robust against the occasional interrupt landing inside a
    probe.
    """
    if n_probes < 1:
        raise ConfigurationError(f"need >= 1 probe, got {n_probes}")
    null = NullBenchmark()
    counts = []
    for index in range(n_probes):
        seed = config_seed(base_seed, "null-probe", config.infra,
                           config.processor, config.mode.value, index)
        probe_config = MeasurementConfig(
            processor=config.processor,
            infra=config.infra,
            pattern=config.pattern,
            mode=config.mode,
            opt_level=config.opt_level,
            n_counters=config.n_counters,
            tsc=config.tsc,
            primary_event=config.primary_event,
            seed=seed,
            io_interrupts=config.io_interrupts,
            governor=config.governor,
        )
        counts.append(float(run_measurement(probe_config, null).measured))
    box = box_summary(np.asarray(counts))
    return CompensationModel(
        config=config,
        probe_median=box.median,
        probe_min=box.minimum,
        probe_max=box.maximum,
        n_probes=n_probes,
    )


def compensated_error(result: MeasurementResult, model: CompensationModel) -> float:
    """The residual error after subtracting the calibrated fixed cost."""
    if result.expected is None:
        raise ConfigurationError(
            f"{result.events[0].value} has no ground truth to compensate "
            "against"
        )
    return result.measured - model.probe_median - result.expected


def measure_compensated(
    config: MeasurementConfig,
    benchmark: Benchmark,
    model: CompensationModel | None = None,
) -> tuple[MeasurementResult, float]:
    """Measure and compensate in one step; returns (raw, residual)."""
    if model is None:
        model = calibrate(config)
    result = run_measurement(config, benchmark)
    return result, compensated_error(result, model)
