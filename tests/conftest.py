"""Shared fixtures for the repro test suite."""

from __future__ import annotations

import pytest

from repro.cpu.events import Event, PrivFilter
from repro.kernel.system import Machine


@pytest.fixture
def quiet_perfctr_machine() -> Machine:
    """A CD/perfctr machine with no I/O interrupts (deterministic)."""
    return Machine(
        processor="CD", kernel="perfctr", seed=1234, io_interrupts=False
    )


@pytest.fixture
def quiet_perfmon_machine() -> Machine:
    """A CD/perfmon machine with no I/O interrupts (deterministic)."""
    return Machine(
        processor="CD", kernel="perfmon", seed=1234, io_interrupts=False
    )


@pytest.fixture
def instr_all() -> tuple[tuple[Event, PrivFilter], ...]:
    """One counter: retired instructions, user+kernel."""
    return ((Event.INSTR_RETIRED, PrivFilter.ALL),)


@pytest.fixture
def instr_user() -> tuple[tuple[Event, PrivFilter], ...]:
    """One counter: retired instructions, user only."""
    return ((Event.INSTR_RETIRED, PrivFilter.USR),)
