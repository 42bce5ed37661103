"""Countable events and privilege levels.

The paper configures counters to count *retired instructions* and
*unhalted cycles*, filtered to user mode or user+kernel mode (Section
2.5).  This module defines the event vocabulary, the privilege levels,
and the privilege filters counters can be programmed with.
"""

from __future__ import annotations

import enum

from repro.isa.work import WorkVector


class Event(enum.Enum):
    """Micro-architectural events a counter can be programmed to count."""

    INSTR_RETIRED = "instr_retired"
    CYCLES = "cycles"
    BRANCHES_RETIRED = "branches_retired"
    TAKEN_BRANCHES = "taken_branches"
    BRANCH_MISSES = "branch_misses"
    LOADS_RETIRED = "loads_retired"
    STORES_RETIRED = "stores_retired"
    DCACHE_MISSES = "dcache_misses"
    L1I_MISSES = "l1i_misses"
    ITLB_MISSES = "itlb_misses"
    BUS_CYCLES = "bus_cycles"


class PrivLevel(enum.Enum):
    """Current processor privilege level (ring)."""

    USER = "user"      # CPL 3
    KERNEL = "kernel"  # CPL 0


class PrivFilter(enum.Flag):
    """Privilege-level filter in a counter's configuration.

    A counter only counts while the processor runs at a level included
    in its filter — the USR/OS bits of IA32 PERFEVTSEL registers.
    """

    NONE = 0
    USR = enum.auto()
    OS = enum.auto()
    ALL = USR | OS

    def matches(self, level: PrivLevel) -> bool:
        """True when events at ``level`` should be counted."""
        # Identity tests against module constants, not Flag arithmetic
        # or enum attribute lookups: the four members are the only
        # values.
        if level is _USER:
            return self is _USR or self is _ALL
        return self is _OS or self is _ALL


_USER = PrivLevel.USER
_USR, _OS, _ALL = PrivFilter.USR, PrivFilter.OS, PrivFilter.ALL


#: Events derivable directly from architectural work accounting, in
#: the order of :attr:`WorkVector.amounts`.
ARCHITECTURAL_EVENTS = (
    Event.INSTR_RETIRED,
    Event.BRANCHES_RETIRED,
    Event.TAKEN_BRANCHES,
    Event.LOADS_RETIRED,
    Event.STORES_RETIRED,
    Event.DCACHE_MISSES,
)

#: The slot table: every event a retirement charges, in the order of
#: its charge vector ``work.amounts + (cycles, cycles * 0.1)``.  The PMU
#: binds each live counter to its event's slot when it is programmed.
#: Events without a slot (branch, L1I and ITLB misses) are not modelled:
#: no retirement charges them, so counters programmed with them read 0.
SLOT_EVENTS = ARCHITECTURAL_EVENTS + (Event.CYCLES, Event.BUS_CYCLES)
EVENT_SLOT = {event: slot for slot, event in enumerate(SLOT_EVENTS)}


def events_from_work(work: WorkVector) -> dict[Event, int]:
    """Map retired work onto architectural event increments.

    Cycle-domain events (CYCLES, BRANCH_MISSES, cache misses...) are not
    derivable from work alone; the core charges those from its timing
    and placement models.
    """
    return dict(zip(ARCHITECTURAL_EVENTS, work.amounts))
