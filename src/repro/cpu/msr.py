"""Model-specific register file.

Kernel extensions configure the PMU through RDMSR/WRMSR (paper, Section
2.2).  :class:`MsrFile` maps the architectural MSR address space onto a
:class:`~repro.cpu.pmu.Pmu`, so driver code in :mod:`repro.perfctr` and
:mod:`repro.perfmon` can manipulate counters exactly the way the real
drivers do — including the fact that these accesses are privileged (the
core enforces that; see :meth:`repro.cpu.core.Core.wrmsr`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cpu.events import Event, PrivFilter
from repro.cpu.pmu import CounterConfig, Pmu
from repro.errors import CounterError

#: IA32 time stamp counter.
MSR_TSC = 0x10
#: Base of the event-select registers (one per programmable counter).
MSR_PERFEVTSEL_BASE = 0x186
#: Base of the counter-value registers.
MSR_PERFCTR_BASE = 0xC1

_PRIV_BITS = {
    PrivFilter.NONE: 0b00,
    PrivFilter.OS: 0b01,
    PrivFilter.USR: 0b10,
    PrivFilter.ALL: 0b11,
}
_BITS_PRIV = {bits: priv for priv, bits in _PRIV_BITS.items()}

_EVSEL_ENABLE = 1 << 22
_EVSEL_INT = 1 << 20
_EVSEL_PRIV_SHIFT = 16


def encode_evtsel(config: CounterConfig, event_code: int) -> int:
    """Encode a counter configuration as a PERFEVTSEL-style value."""
    value = event_code & 0xFFFF
    value |= _PRIV_BITS[config.priv] << _EVSEL_PRIV_SHIFT
    if config.enabled:
        value |= _EVSEL_ENABLE
    if config.interrupt_on_overflow:
        value |= _EVSEL_INT
    return value


def decode_evtsel(value: int, code_to_event: dict[int, Event]) -> CounterConfig:
    """Decode a PERFEVTSEL-style value back to a configuration."""
    code = value & 0xFFFF
    try:
        event = code_to_event[code]
    except KeyError:
        raise CounterError(f"unknown event code {code:#x}") from None
    priv = _BITS_PRIV[(value >> _EVSEL_PRIV_SHIFT) & 0b11]
    return CounterConfig(
        event=event,
        priv=priv,
        enabled=bool(value & _EVSEL_ENABLE),
        interrupt_on_overflow=bool(value & _EVSEL_INT),
    )


class EvtselCodec:
    """PERFEVTSEL decoding for one mapping of events to native codes.

    Decoding is a pure function of the written value, and the decoded
    :class:`CounterConfig` is a frozen value object, so each value is
    decoded once and the result shared.  A micro-architecture holds one
    codec for the MSR files of every core it boots: the drivers write a
    few dozen distinct values across a whole sweep.
    """

    #: Bound on memoized values (cleared when reached).
    MEMO_BOUND = 4096

    def __init__(self, event_codes: dict[Event, int]) -> None:
        self.code_to_event = {code: ev for ev, code in event_codes.items()}
        self._decoded: dict[int, CounterConfig] = {}

    def decode(self, value: int) -> CounterConfig:
        """:func:`decode_evtsel` of ``value`` under this code map."""
        config = self._decoded.get(value)
        if config is None:
            config = decode_evtsel(value, self.code_to_event)
            if len(self._decoded) >= self.MEMO_BOUND:
                self._decoded.clear()
            self._decoded[value] = config
        return config


@dataclass
class MsrFile:
    """The MSR address space of one core.

    Args:
        pmu: the PMU whose registers back the performance MSRs.
        event_codes: µarch-specific mapping from events to native codes.
        codec: a shared codec for ``event_codes`` (the
            micro-architecture's); a private one is built when omitted.
    """

    pmu: Pmu
    event_codes: dict[Event, int]
    codec: EvtselCodec | None = None

    def __post_init__(self) -> None:
        if self.codec is None:
            self.codec = EvtselCodec(self.event_codes)

    def read(self, address: int) -> int:
        """RDMSR semantics (the *core* enforces the privilege check)."""
        if address == MSR_TSC:
            return self.pmu.read_tsc()
        index = self._perfctr_index(address)
        if index is not None:
            return self.pmu.read(index)
        index = self._evtsel_index(address)
        if index is not None:
            config = self.pmu.counters[index].config
            if config is None:
                return 0
            return encode_evtsel(config, self.event_codes[config.event])
        raise CounterError(f"read of unmapped MSR {address:#x}")

    def write(self, address: int, value: int) -> None:
        """WRMSR semantics."""
        if address == MSR_TSC:
            self.pmu.write_tsc(value)
            return
        index = self._perfctr_index(address)
        if index is not None:
            self.pmu.write(index, value)
            return
        index = self._evtsel_index(address)
        if index is not None:
            self.pmu.program(index, self.codec.decode(value))
            return
        raise CounterError(f"write of unmapped MSR {address:#x}")

    def _perfctr_index(self, address: int) -> int | None:
        offset = address - MSR_PERFCTR_BASE
        if 0 <= offset < self.pmu.n_programmable:
            return offset
        return None

    def _evtsel_index(self, address: int) -> int | None:
        offset = address - MSR_PERFEVTSEL_BASE
        if 0 <= offset < self.pmu.n_programmable:
            return offset
        return None
