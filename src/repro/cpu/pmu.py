"""The performance monitoring unit: counter registers and the TSC.

Counters here behave like the hardware the paper describes (Section
2.1): programmable counters select an event and a privilege filter and
can be enabled, disabled, read, and written; fixed-function counters
always count their designated event; the time stamp counter always
runs.  Counters are ``width``-bit registers and wrap on overflow; a
counter configured with ``interrupt_on_overflow`` raises its overflow
line, which the kernel may route to a sampling handler.

The PMU never knows about software threads — per-thread virtualization
is the job of the kernel extensions (:mod:`repro.perfctr`,
:mod:`repro.perfmon`), exactly as in the real stack.

Counters are bound when they are programmed, not when they count: every
configuration change rebuilds, per privilege level, the tuple of live
counters and the slot of the charge vector each one counts (see
:data:`repro.cpu.events.SLOT_EVENTS`).  Charging a retirement is then
one pass over that tuple, with no privilege test and no event lookup.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

from repro.cpu.events import (
    EVENT_SLOT,
    SLOT_EVENTS,
    Event,
    PrivFilter,
    PrivLevel,
)
from repro.errors import CounterError

_USER = PrivLevel.USER
_KERNEL = PrivLevel.KERNEL


@dataclass(frozen=True, slots=True)
class CounterConfig:
    """Programming of one programmable counter."""

    event: Event
    priv: PrivFilter = PrivFilter.ALL
    enabled: bool = False
    interrupt_on_overflow: bool = False


@dataclass(slots=True)
class ProgrammableCounter:
    """One programmable counter register."""

    index: int
    width: int
    config: CounterConfig | None = None
    _value: float = 0.0
    #: ``1 << width``: the value at which the register wraps.
    limit: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.limit = 1 << self.width

    @property
    def live(self) -> bool:
        """True when the counter is programmed and enabled."""
        return self.config is not None and self.config.enabled

    def read(self) -> int:
        return int(self._value) % self.limit

    def write(self, value: int) -> None:
        if value < 0:
            raise CounterError(f"counter {self.index}: cannot write {value}")
        self._value = float(value % self.limit)

    def add(self, amount: float) -> bool:
        """Accumulate; returns True when the counter wrapped (overflow)."""
        before = self._value
        self._value = before + amount
        wrapped = self._value >= self.limit
        if wrapped:
            self._value -= self.limit
        return wrapped


@dataclass(slots=True)
class FixedCounter:
    """A fixed-function counter: the event is hard-wired."""

    index: int
    event: Event
    width: int
    priv: PrivFilter = PrivFilter.NONE  # NONE = disabled
    _value: float = 0.0
    limit: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.limit = 1 << self.width

    @property
    def live(self) -> bool:
        return self.priv is not PrivFilter.NONE

    def read(self) -> int:
        return int(self._value) % self.limit

    def write(self, value: int) -> None:
        self._value = float(value % self.limit)

    def add(self, amount: float) -> bool:
        before = self._value
        self._value = before + amount
        wrapped = self._value >= self.limit
        if wrapped:
            self._value -= self.limit
        return wrapped


Counter = ProgrammableCounter | FixedCounter


class Pmu:
    """The per-core performance monitoring unit.

    Args:
        n_programmable: number of programmable counters (Table 1).
        fixed_events: events of the fixed-function counters, if any
            (Core2 has three: instructions, core cycles, bus cycles).
        counter_width: width in bits of programmable counters.
        on_overflow: callback invoked with the counter index when a
            counter with ``interrupt_on_overflow`` wraps.
    """

    TSC_WIDTH = 64

    def __init__(
        self,
        n_programmable: int,
        fixed_events: tuple[Event, ...] = (),
        counter_width: int = 40,
        on_overflow: Callable[[int], None] | None = None,
    ) -> None:
        if n_programmable < 1:
            raise CounterError("a PMU needs at least one programmable counter")
        self.counters = [
            ProgrammableCounter(index=i, width=counter_width)
            for i in range(n_programmable)
        ]
        self.fixed = [
            FixedCounter(index=i, event=event, width=counter_width)
            for i, event in enumerate(fixed_events)
        ]
        self._tsc = 0.0
        self.on_overflow = on_overflow
        #: Per privilege level, the ``(counter, slot)`` pairs of every
        #: live counter whose filter admits that level and whose event
        #: has a slot: programmable counters by index, then fixed ones.
        self.bound_user: tuple[tuple[Counter, int], ...] = ()
        self.bound_kernel: tuple[tuple[Counter, int], ...] = ()
        #: True when a bound counter raises its overflow line.
        self._overflow_bound = False

    # -- configuration ---------------------------------------------------

    @property
    def n_programmable(self) -> int:
        return len(self.counters)

    @property
    def n_fixed(self) -> int:
        return len(self.fixed)

    def program(self, index: int, config: CounterConfig) -> None:
        """Program counter ``index`` (models a PERFEVTSEL write)."""
        self._counter(index).config = config
        self._rebind()

    def configure_fixed(self, index: int, priv: PrivFilter) -> None:
        """Set a fixed counter's privilege filter (NONE disables it)."""
        self._fixed(index).priv = priv
        self._rebind()

    def enable(self, index: int) -> None:
        counter = self._counter(index)
        if counter.config is None:
            raise CounterError(f"counter {index} enabled before being programmed")
        counter.config = replace(counter.config, enabled=True)
        self._rebind()

    def disable(self, index: int) -> None:
        counter = self._counter(index)
        if counter.config is not None:
            counter.config = replace(counter.config, enabled=False)
            self._rebind()

    def disable_all(self) -> None:
        for counter in self.counters:
            if counter.config is not None:
                counter.config = replace(counter.config, enabled=False)
        self._rebind()

    # -- access ------------------------------------------------------------

    def read(self, index: int) -> int:
        """Read a programmable counter (models RDPMC)."""
        return self._counter(index).read()

    def write(self, index: int, value: int) -> None:
        """Write a programmable counter (models WRMSR to PERFCTRx)."""
        self._counter(index).write(value)

    def read_fixed(self, index: int) -> int:
        return self._fixed(index).read()

    def read_tsc(self) -> int:
        """Read the time stamp counter (models RDTSC)."""
        return int(self._tsc) % (1 << self.TSC_WIDTH)

    def write_tsc(self, value: int) -> None:
        self._tsc = float(value)

    # -- counting ------------------------------------------------------------

    def charge(self, amounts: tuple[float, ...], level: PrivLevel) -> None:
        """Charge one retirement observed at privilege ``level``.

        ``amounts`` is the slot-indexed charge vector,
        ``work.amounts + (cycles, cycles * 0.1)``.  Every counter bound
        to ``level`` accumulates its slot's amount; overflow lines fire
        via ``on_overflow``.
        """
        if self._overflow_bound and self.on_overflow is not None:
            self._charge_with_overflow(amounts, level)
            return
        for counter, slot in (
            self.bound_user if level is _USER else self.bound_kernel
        ):
            amount = amounts[slot]
            if amount:
                # counter.add(amount), inlined: this is the per-retirement
                # loop, and no overflow line can fire on this path.
                value = counter._value + amount
                if value >= counter.limit:
                    value -= counter.limit
                counter._value = value

    def count(self, deltas: dict[Event, int | float], level: PrivLevel) -> None:
        """Charge event increments given as a mapping (the skid path).

        Events without a slot are not modelled and charge nothing.
        """
        self.charge(tuple(deltas.get(event, 0) for event in SLOT_EVENTS), level)

    def _charge_with_overflow(
        self, amounts: tuple[float, ...], level: PrivLevel
    ) -> None:
        """:meth:`charge` when an overflow handler may run mid-charge.

        A handler may reprogram the PMU, so the scan reads the binding
        afresh at every counter: a counter after the one that overflowed
        counts under the configuration the handler left behind, as a
        sequential scan of the counter registers would.
        """
        last = -1
        while True:
            bound = self.bound_user if level is _USER else self.bound_kernel
            pending = [pair for pair in bound if self._rank(pair[0]) > last]
            if not pending:
                return
            counter, slot = pending[0]
            last = self._rank(counter)
            amount = amounts[slot]
            if not amount:
                continue
            if (
                isinstance(counter, ProgrammableCounter)
                and counter.config.interrupt_on_overflow
                and self.on_overflow is not None
            ):
                self._accumulate_with_overflow(counter, float(amount))
            else:
                counter.add(amount)

    def _accumulate_with_overflow(
        self, counter: ProgrammableCounter, amount: float
    ) -> None:
        """Charge ``amount`` firing the overflow line at every wrap.

        A single closed-form retirement bundle can cover many sampling
        periods; real hardware would interrupt at each overflow, so the
        charge is applied in wrap-sized steps with the callback (which
        typically re-arms the counter) run between steps.
        """
        assert self.on_overflow is not None
        remaining = amount
        for _ in range(10_000_000):
            space = counter.limit - counter._value
            if remaining < space:
                counter._value += remaining
                return
            remaining -= space
            counter._value = 0.0
            self.on_overflow(counter.index)
            if remaining <= 0:
                return
        raise CounterError(
            f"counter {counter.index}: overflow storm "
            "(period too small for the charged amount)"
        )

    def advance_tsc(self, cycles: float) -> None:
        """The TSC free-runs: it advances regardless of mode or filters."""
        if cycles < 0:
            raise CounterError(f"TSC cannot run backwards ({cycles})")
        self._tsc += cycles

    # -- state save/restore (context switches) -----------------------------

    def snapshot(self) -> dict:
        """Capture full PMU state for a context switch."""
        return {
            "counters": [(c.config, c._value) for c in self.counters],
            "fixed": [(f.priv, f._value) for f in self.fixed],
        }

    def restore(self, state: dict) -> None:
        """Restore state captured by :meth:`snapshot`."""
        for counter, (config, value) in zip(self.counters, state["counters"]):
            counter.config = config
            counter._value = value
        for fixed, (priv, value) in zip(self.fixed, state["fixed"]):
            fixed.priv = priv
            fixed._value = value
        self._rebind()

    # -- helpers ----------------------------------------------------------

    def _rebind(self) -> None:
        """Rebuild the per-level counter bindings after a configuration
        change; every mutation (program, configure_fixed, enable,
        disable, disable_all, restore) ends here."""
        live: list[tuple[Counter, Event, PrivFilter]] = [
            (c, c.config.event, c.config.priv) for c in self.counters if c.live
        ]
        live += [(f, f.event, f.priv) for f in self.fixed if f.live]
        user: list[tuple[Counter, int]] = []
        kernel: list[tuple[Counter, int]] = []
        for counter, event, priv in live:
            slot = EVENT_SLOT.get(event)
            if slot is None:
                continue
            if priv.matches(_USER):
                user.append((counter, slot))
            if priv.matches(_KERNEL):
                kernel.append((counter, slot))
        self.bound_user = tuple(user)
        self.bound_kernel = tuple(kernel)
        self._overflow_bound = any(
            c.config.interrupt_on_overflow for c, _, _ in live
            if isinstance(c, ProgrammableCounter)
        )

    def _rank(self, counter: "Counter") -> int:
        """Position of ``counter`` in binding order."""
        if isinstance(counter, FixedCounter):
            return len(self.counters) + counter.index
        return counter.index

    def _counter(self, index: int) -> ProgrammableCounter:
        if not 0 <= index < len(self.counters):
            raise CounterError(
                f"no programmable counter {index} "
                f"(PMU has {len(self.counters)})"
            )
        return self.counters[index]

    def _fixed(self, index: int) -> FixedCounter:
        if not 0 <= index < len(self.fixed):
            raise CounterError(
                f"no fixed counter {index} (PMU has {len(self.fixed)})"
            )
        return self.fixed[index]
