"""Extension: cross-platform portability (Maxwell et al., LACSI'02).

Maxwell et al. extended counter validation beyond Korn et al.'s single
platform; Araiza et al. then argued for a *cross-platform
micro-benchmark suite*.  This experiment runs exactly such a suite —
the paper's null and loop benchmarks plus our analytical extras — on
four platforms (the paper's three and the extension Pentium III model),
through both substrates, and checks which of the study's conclusions
are platform-invariant:

* instruction-count ground truth recovers exactly everywhere;
* perfmon beats perfctr for user-mode counting on every platform;
* the user-mode fixed cost is API-layer-ordered everywhere.
"""

from __future__ import annotations

from repro.core.config import MeasurementConfig, Mode, Pattern
from repro.core.sweep import config_seed
from repro.exec import BenchmarkSpec, Executor, MeasurementJob, MeasurementPlan
from repro.experiments.base import ExperimentResult

PLATFORMS = ("PD", "CD", "K8", "P3")
SUITE = (
    ("null", BenchmarkSpec.null()),
    ("loop", BenchmarkSpec.loop(100_000)),
    ("chain", BenchmarkSpec.chain(50_000)),
    ("branches", BenchmarkSpec.branches(50_000)),
)


def run(base_seed: int = 0) -> ExperimentResult:
    """The portable validation suite across four platforms."""
    jobs = tuple(
        MeasurementJob(
            config=MeasurementConfig(
                processor=platform,
                infra=infra,
                pattern=Pattern.START_READ,
                mode=Mode.USER,
                seed=config_seed(base_seed, platform, infra, bench_name),
                io_interrupts=False,
            ),
            benchmark=spec,
            tags=(
                ("platform", platform),
                ("infra", infra),
                ("benchmark", bench_name),
            ),
        )
        for platform in PLATFORMS
        for infra in ("pm", "pc", "PLpm", "PHpm")
        for bench_name, spec in SUITE
    )
    table = Executor().run(
        MeasurementPlan(
            jobs=jobs, result_fields=("expected", "measured", "error")
        )
    )

    lines = [
        f"{'platform':<9} {'infra':<6} "
        + " ".join(f"{name:>9}" for name, _f in SUITE)
        + "   (user-mode error)"
    ]
    summary: dict = {}
    for platform in PLATFORMS:
        for infra in ("pm", "pc", "PLpm", "PHpm"):
            errors = {}
            for bench_name, _factory in SUITE:
                sub = table.where(
                    platform=platform, infra=infra, benchmark=bench_name
                )
                errors[bench_name] = sub.column("error")[0]
            summary[(platform, infra)] = errors
            lines.append(
                f"{platform:<9} {infra:<6} "
                + " ".join(f"{errors[name]:>9}" for name, _f in SUITE)
            )

    # Platform-invariant conclusions.
    fixed_cost_benchmark_invariant = all(
        len({entry[name] for name in ("null", "loop", "chain", "branches")})
        == 1
        for entry in summary.values()
        if isinstance(entry, dict)
    )
    pm_beats_pc_everywhere = all(
        summary[(platform, "pm")]["null"] < summary[(platform, "pc")]["null"]
        for platform in PLATFORMS
    )
    layering_everywhere = all(
        summary[(platform, "pm")]["null"]
        < summary[(platform, "PLpm")]["null"]
        < summary[(platform, "PHpm")]["null"]
        for platform in PLATFORMS
    )
    summary["fixed_cost_benchmark_invariant"] = fixed_cost_benchmark_invariant
    summary["pm_beats_pc_everywhere"] = pm_beats_pc_everywhere
    summary["layering_everywhere"] = layering_everywhere
    lines.append(
        "platform-invariant: fixed cost independent of benchmark "
        f"({fixed_cost_benchmark_invariant}); pm < pc in user mode "
        f"({pm_beats_pc_everywhere}); PH > PL > direct "
        f"({layering_everywhere})"
    )
    return ExperimentResult(
        experiment_id="ext:cross-platform",
        title="Portable validation suite on four platforms",
        data=table,
        summary=summary,
        paper={"note": "Maxwell et al. / Araiza et al. portability studies"},
        report_lines=lines,
    )
