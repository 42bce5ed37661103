"""Shared helpers for the experiment modules."""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.analysis.table import ResultTable
from repro.core.compiler import OptLevel
from repro.core.config import Mode, Pattern
from repro.cpu.events import Event
from repro.exec import LOOP_SIZES, Executor, LoopSweepSpec

__all__ = ["LOOP_SIZES", "fmt", "loop_error_rows"]


def loop_error_rows(
    processors: Sequence[str],
    infras: Sequence[str],
    mode: Mode,
    sizes: Iterable[int] = LOOP_SIZES,
    repeats: int = 10,
    pattern: Pattern = Pattern.START_READ,
    opt_levels: Sequence[OptLevel] = (OptLevel.O2,),
    primary_event: Event = Event.INSTR_RETIRED,
    base_seed: int = 0,
) -> ResultTable:
    """Measure the loop benchmark across sizes; one row per run.

    Thin wrapper over :class:`repro.exec.LoopSweepSpec` — the common
    engine behind Figures 7–12 — run on the configured executor.
    """
    spec = LoopSweepSpec(
        processors=tuple(processors),
        infras=tuple(infras),
        mode=mode,
        sizes=tuple(sizes),
        repeats=repeats,
        pattern=pattern,
        opt_levels=tuple(opt_levels),
        primary_event=primary_event,
        base_seed=base_seed,
    )
    return Executor().run(spec.plan())


def fmt(value: float, digits: int = 1) -> str:
    """Compact number formatting for reports."""
    if value is None:
        return "-"
    if abs(value) >= 1000 and float(value).is_integer():
        return f"{int(value):,}"
    return f"{value:.{digits}f}"
