"""repro: a full-stack reproduction of
"Accuracy of Performance Counter Measurements" (Zaparanuks, Jovic,
Hauswirth — ISPASS 2009 / Univ. of Lugano TR 2008/05).

The package simulates the complete stack the paper measures — three
IA32 processors with performance-counter hardware, a Linux-shaped
kernel, the perfctr and perfmon2 kernel extensions, their user-space
libraries, and both PAPI APIs — and re-runs the paper's accuracy study
on top: six counter-access infrastructures × four access patterns ×
privilege-filtered counting × micro-benchmarks with analytical ground
truth.

Quick start:

    >>> from repro import MeasurementConfig, Mode, Pattern
    >>> from repro import NullBenchmark, run_measurement
    >>> cfg = MeasurementConfig(processor="K8", infra="pm",
    ...                         pattern=Pattern.READ_READ, mode=Mode.USER,
    ...                         io_interrupts=False)
    >>> run_measurement(cfg, NullBenchmark()).error   # superfluous instr
    38

Subpackages:

* :mod:`repro.isa` — instruction/work accounting, the Figure 3 loop
  assembler, code layout.
* :mod:`repro.cpu` — PMU, MSRs, TSC, timing and placement models, the
  three processors of Table 1.
* :mod:`repro.kernel` — syscalls, interrupts, scheduler, the two
  patched kernel builds, the bootable :class:`~repro.kernel.Machine`.
* :mod:`repro.perfctr`, :mod:`repro.perfmon`, :mod:`repro.papi` — the
  measured infrastructures.
* :mod:`repro.core` — the accuracy-study harness (the paper's
  contribution).
* :mod:`repro.analysis` — box/violin summaries, regression, ANOVA.
* :mod:`repro.experiments` — one module per paper table/figure.
"""

from repro.analysis import ResultTable, anova_n_way, box_summary, fit_line
from repro.core import (
    LoopBenchmark,
    MeasurementConfig,
    MeasurementResult,
    Mode,
    NullBenchmark,
    OptLevel,
    Pattern,
    StridedLoadBenchmark,
    SweepSpec,
    run_measurement,
    run_sweep,
)
from repro.cpu import Event, PrivFilter
from repro.errors import ReproError
from repro.kernel import Machine

__version__ = "1.1.0"

# Imported after __version__ because cache keys embed the version.
from repro.exec import (  # noqa: E402
    BenchmarkSpec,
    Executor,
    ExecutorStats,
    LoopSweepSpec,
    MeasurementJob,
    MeasurementPlan,
    ResultCache,
    get_executor,
    set_default_jobs,
)

__all__ = [
    "BenchmarkSpec",
    "Event",
    "Executor",
    "ExecutorStats",
    "LoopBenchmark",
    "LoopSweepSpec",
    "Machine",
    "MeasurementConfig",
    "MeasurementJob",
    "MeasurementPlan",
    "MeasurementResult",
    "Mode",
    "NullBenchmark",
    "OptLevel",
    "Pattern",
    "PrivFilter",
    "ReproError",
    "ResultCache",
    "ResultTable",
    "StridedLoadBenchmark",
    "SweepSpec",
    "anova_n_way",
    "box_summary",
    "fit_line",
    "get_executor",
    "run_measurement",
    "run_sweep",
    "set_default_jobs",
    "__version__",
]
