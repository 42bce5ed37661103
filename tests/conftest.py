"""Shared fixtures for the repro test suite."""

from __future__ import annotations

import pytest

from repro.cpu.events import Event, PrivFilter
from repro.kernel.system import Machine


@pytest.fixture
def warm():
    """A private two-worker warm backend, shut down after the test."""
    from repro.backend import make_backend, warm_available

    if not warm_available():
        pytest.skip("warm backend needs the fork start method")
    backend = make_backend("warm", workers=2)
    yield backend
    backend.shutdown(grace=2.0)


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
