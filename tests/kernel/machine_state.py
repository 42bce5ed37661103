"""A machine's whole state as plain, comparable data, and a way to dirty it.

A reset must leave exactly the state a newly built machine has.
:func:`machine_state` walks the machine's object graph — core, PMU
counters, clock policy, scheduler and threads, interrupt controller,
syscall counts, extension — and turns it into nested tuples and dicts,
with the generator as its bit-generator state and a shared object as
the path it was first reached by.  Two machines are in the same state
when their :func:`machine_state` values are equal.

Left out are the pure caches (the cycle and loop-CPI memos, the shared
PERFEVTSEL codec), the immutable boot image the machine was built from,
and the syscall handler table: registrations are part of the graph a
machine keeps across resets (a benchmark that installs its own syscall
finds it installed), while the invocation counts are state.

:func:`dirty` leaves behind, on an idle machine, everything a run can
change: the kind of state a reset has to clear.
"""

from __future__ import annotations

import enum
import types
from typing import Any

import numpy as np

from repro.cpu.events import Event, PrivFilter, PrivLevel
from repro.cpu.pmu import CounterConfig
from repro.isa.work import WorkVector
from repro.kernel.system import Machine
from repro.trace import Tracer

#: Attributes that hold caches, immutable boot data or registrations.
SKIPPED = frozenset({
    "image", "build", "uarch", "timing", "codec", "event_codes",
    "_cycle_memos", "_work_cycles_memo", "_loop_cpi_memo",
    "_handlers", "_names",
})

_SCALARS = (type(None), bool, int, float, str, bytes, enum.Enum)


def machine_state(machine: Machine) -> Any:
    """Everything about ``machine`` a run can read or change."""
    seen: dict[int, str] = {}

    def walk(value: Any, path: str) -> Any:
        if isinstance(value, _SCALARS):
            return value
        if id(value) in seen:
            return ("same as", seen[id(value)])
        seen[id(value)] = path
        if isinstance(value, np.random.Generator):
            return ("generator", value.bit_generator.state)
        if isinstance(value, dict):
            return {key: walk(item, f"{path}[{key!r}]")
                    for key, item in value.items()}
        if isinstance(value, (list, tuple)):
            return (type(value).__name__, tuple(
                walk(item, f"{path}[{index}]")
                for index, item in enumerate(value)))
        if isinstance(value, types.MethodType):
            return ("method", value.__func__.__qualname__,
                    walk(value.__self__, f"{path}.__self__"))
        if isinstance(value, types.FunctionType):
            return ("function", value.__qualname__)
        return (type(value).__qualname__, {
            name: walk(item, f"{path}.{name}")
            for name, item in _attributes(value).items()
            if name not in SKIPPED
        })

    return walk(machine, "machine")


def _attributes(obj: Any) -> dict[str, Any]:
    attributes = dict(getattr(obj, "__dict__", {}))
    for cls in type(obj).__mro__:
        for name in getattr(cls, "__slots__", ()):
            if name not in attributes and hasattr(obj, name):
                attributes[name] = getattr(obj, name)
    return attributes


def dirty(machine: Machine) -> None:
    """Leave, on an idle machine, state of every kind a run changes.

    Privilege and interrupt masking left mid-run, a tracer, no loop
    warm-up, a retuned clock, programmed and overflowing counters with
    a handler, enabled fixed counters, a moved TSC, a disabled
    controller, a stray thread and syscall counts.
    """
    core, pmu = machine.core, machine.core.pmu
    core.mode = PrivLevel.KERNEL
    core.interrupts_masked = True
    core.user_rdpmc_enabled = True
    core.tracer = Tracer()
    core.loop_warmup_cycles = 0.0
    machine.controller.enabled = False
    core.freq.current_hz = core.freq.p_states_hz[0]
    core.retire(WorkVector.single("alu"))  # re-keys the memos to it
    pmu.program(0, CounterConfig(Event.CYCLES, enabled=True,
                                 interrupt_on_overflow=True))
    pmu.write(0, 41)
    pmu.on_overflow = lambda index: None
    for index in range(pmu.n_fixed):
        pmu.configure_fixed(index, PrivFilter.ALL)
    pmu.write_tsc(123_456_789)
    machine.scheduler.spawn("stray")
    machine.syscalls.invocations[999] = 3
