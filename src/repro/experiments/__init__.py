"""Reproductions of every table and figure in the paper's evaluation.

Each module exposes ``run(...) -> ExperimentResult`` with sensible
defaults sized for interactive use; the benchmark harness under
``benchmarks/`` calls the same entry points with paper-scale
parameters.  ``EXPERIMENTS`` maps the paper artifact ids to their
runners.
"""

from repro.experiments.base import ExperimentResult
from repro.experiments import (
    ext_cache_accuracy,
    ext_compensation,
    ext_cross_platform,
    ext_frequency,
    ext_multiplexing,
    ext_sampling,
    ext_standalone_tools,
    ext_thread_isolation,
    fig01_overview,
    fig02_stack,
    fig03_benchmark,
    fig04_tsc,
    fig05_registers,
    fig06_infrastructure,
    fig07_uk_slope,
    fig08_user_slope,
    fig09_kernel_by_size,
    fig10_cycles,
    fig11_bimodal,
    fig12_placement,
    sec43_anova,
    tab01_processors,
    tab02_patterns,
)

#: paper artifact id → runner
EXPERIMENTS = {
    "table1": tab01_processors.run,
    "table2": tab02_patterns.run,
    "figure1": fig01_overview.run,
    "figure2": fig02_stack.run,
    "figure3": fig03_benchmark.run,
    "figure4": fig04_tsc.run,
    "figure5": fig05_registers.run,
    "figure6+table3": fig06_infrastructure.run,
    "section4.3": sec43_anova.run,
    "figure7": fig07_uk_slope.run,
    "figure8": fig08_user_slope.run,
    "figure9": fig09_kernel_by_size.run,
    "figure10": fig10_cycles.run,
    "figure11": fig11_bimodal.run,
    "figure12": fig12_placement.run,
}

#: extension experiment id → runner (beyond the paper's evaluation)
EXTENSIONS = {
    "ext:standalone-tools": ext_standalone_tools.run,
    "ext:compensation": ext_compensation.run,
    "ext:multiplexing": ext_multiplexing.run,
    "ext:sampling": ext_sampling.run,
    "ext:frequency-scaling": ext_frequency.run,
    "ext:cache-accuracy": ext_cache_accuracy.run,
    "ext:thread-isolation": ext_thread_isolation.run,
    "ext:cross-platform": ext_cross_platform.run,
}

#: every runnable artifact
ALL_EXPERIMENTS = {**EXPERIMENTS, **EXTENSIONS}


def run_artifact(
    artifact: str, repeats: "int | None" = None, seed: int = 0
) -> ExperimentResult:
    """Run one registered artifact by id — the single entry point of
    the CLI's ``reproduce`` and ``trace``, so both produce identical
    results for identical (artifact, repeats, seed).

    ``repeats``/``seed`` are forwarded only to runners that take them
    (structural artifacts like figure2 are parameterless).
    """
    import inspect

    runner = ALL_EXPERIMENTS[artifact]
    signature = inspect.signature(runner)
    kwargs: dict = {}
    if repeats is not None and "repeats" in signature.parameters:
        kwargs["repeats"] = repeats
    if "base_seed" in signature.parameters:
        kwargs["base_seed"] = seed
    return runner(**kwargs)


def artifact_catalog() -> "list[dict[str, str]]":
    """Ids + descriptions of every runnable artifact, as plain data.

    The description is the first line of the experiment module's
    docstring.  This feeds ``repro list --json``, so external tooling
    never scrapes text output.
    """
    import inspect

    catalog = []
    for name, runner in ALL_EXPERIMENTS.items():
        module = inspect.getmodule(runner)
        doc = (module.__doc__ or "").strip().splitlines()
        catalog.append({
            "id": name,
            "kind": "extension" if name in EXTENSIONS else "paper",
            "description": doc[0].rstrip(".") if doc else "",
        })
    return catalog


__all__ = [
    "ALL_EXPERIMENTS",
    "EXPERIMENTS",
    "EXTENSIONS",
    "ExperimentResult",
    "artifact_catalog",
    "run_artifact",
]
