"""Unit tests for repro.cpu.msr."""

import pytest

from repro.cpu import msr as msr_mod
from repro.cpu.events import Event, PrivFilter
from repro.cpu.msr import (
    MSR_PERFCTR_BASE,
    MSR_PERFEVTSEL_BASE,
    MSR_TSC,
    EvtselCodec,
    MsrFile,
    decode_evtsel,
    encode_evtsel,
)
from repro.cpu.pmu import CounterConfig, Pmu
from repro.errors import CounterError
from repro.kernel.system import Machine

CODES = {Event.INSTR_RETIRED: 0xC0, Event.CYCLES: 0x3C}


@pytest.fixture
def msr() -> MsrFile:
    return MsrFile(Pmu(n_programmable=2), CODES)


class TestEvtselEncoding:
    @pytest.mark.parametrize("priv", [PrivFilter.USR, PrivFilter.OS, PrivFilter.ALL])
    @pytest.mark.parametrize("enabled", [False, True])
    def test_round_trip(self, priv, enabled):
        config = CounterConfig(Event.INSTR_RETIRED, priv, enabled)
        value = encode_evtsel(config, CODES[Event.INSTR_RETIRED])
        decoded = decode_evtsel(value, {0xC0: Event.INSTR_RETIRED})
        assert decoded == config

    def test_interrupt_bit_round_trips(self):
        config = CounterConfig(
            Event.CYCLES, PrivFilter.ALL, True, interrupt_on_overflow=True
        )
        value = encode_evtsel(config, CODES[Event.CYCLES])
        assert decode_evtsel(value, {0x3C: Event.CYCLES}) == config

    def test_unknown_code_rejected(self):
        with pytest.raises(CounterError, match="unknown event code"):
            decode_evtsel(0xFF, {0xC0: Event.INSTR_RETIRED})


class TestMsrFile:
    def test_tsc_read_write(self, msr):
        msr.write(MSR_TSC, 777)
        assert msr.read(MSR_TSC) == 777

    def test_counter_value_registers(self, msr):
        msr.write(MSR_PERFCTR_BASE + 1, 41)
        assert msr.read(MSR_PERFCTR_BASE + 1) == 41
        assert msr.pmu.read(1) == 41

    def test_evtsel_programs_pmu(self, msr):
        config = CounterConfig(Event.INSTR_RETIRED, PrivFilter.USR, True)
        msr.write(MSR_PERFEVTSEL_BASE, encode_evtsel(config, 0xC0))
        assert msr.pmu.counters[0].config == config

    def test_evtsel_reads_back(self, msr):
        config = CounterConfig(Event.CYCLES, PrivFilter.ALL, True)
        msr.write(MSR_PERFEVTSEL_BASE + 1, encode_evtsel(config, 0x3C))
        assert msr.read(MSR_PERFEVTSEL_BASE + 1) == encode_evtsel(config, 0x3C)

    def test_unprogrammed_evtsel_reads_zero(self, msr):
        assert msr.read(MSR_PERFEVTSEL_BASE) == 0

    @pytest.mark.parametrize("op", ["read", "write"])
    def test_unmapped_address(self, msr, op):
        with pytest.raises(CounterError, match="unmapped"):
            if op == "read":
                msr.read(0xDEAD)
            else:
                msr.write(0xDEAD, 1)

    def test_out_of_range_counter_msr_unmapped(self, msr):
        with pytest.raises(CounterError, match="unmapped"):
            msr.read(MSR_PERFCTR_BASE + 2)  # only 2 counters


class TestEvtselCodec:
    def test_each_value_is_decoded_once(self, monkeypatch):
        decoded = []

        def counting(value, code_to_event):
            decoded.append(value)
            return decode_evtsel(value, code_to_event)

        monkeypatch.setattr(msr_mod, "decode_evtsel", counting)
        codec = EvtselCodec(CODES)
        config = CounterConfig(Event.CYCLES, PrivFilter.OS, True)
        value = encode_evtsel(config, CODES[Event.CYCLES])
        first = codec.decode(value)
        assert first == config
        assert codec.decode(value) is first
        assert decoded == [value]

    def test_memo_is_bounded(self):
        codec = EvtselCodec(CODES)
        codec.MEMO_BOUND = 2
        for priv in (PrivFilter.USR, PrivFilter.OS, PrivFilter.ALL):
            codec.decode(encode_evtsel(CounterConfig(Event.CYCLES, priv), 0x3C))
        assert len(codec._decoded) <= 2

    def test_cores_of_one_microarch_share_the_codec(self):
        first, second = Machine(seed=1), Machine(seed=2)
        assert first.core.msr.codec is second.core.msr.codec
        assert first.core.msr.codec is first.uarch.evtsel_codec
