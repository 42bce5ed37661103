"""Micro-architecture descriptions.

A :class:`MicroArch` bundles everything that differs between the three
processors of the paper's Table 1: counter inventory, clock, timing
parameters, placement sensitivity, native event encodings, and how
expensive the PMU is to program (NetBurst's ESCR/CCCR pairs need more
MSR writes per counter than Core2/K8's PERFEVTSEL scheme — a real
source of per-platform driver cost differences).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cpu.branch import BranchPlacementModel
from repro.cpu.events import Event
from repro.cpu.fetch import FetchPlacementModel
from repro.cpu.msr import EvtselCodec
from repro.cpu.pmu import Pmu
from repro.cpu.timing import TimingModel
from repro.errors import ConfigurationError, UnsupportedEventError


@dataclass(frozen=True)
class MicroArch:
    """Static description of one processor model.

    Attributes mirror the paper's Table 1 plus the timing/placement
    parameters the simulation needs.  ``driver_cost_scale`` scales the
    instruction counts of µarch-specific driver code paths (counter
    programming, PMU state save/restore) relative to the Core2 baseline.
    """

    key: str
    marketing_name: str
    uarch_name: str
    vendor: str
    freq_ghz: float
    n_prog_counters: int
    fixed_events: tuple[Event, ...]
    counter_width: int
    event_codes: dict[Event, int]
    issue_width: float
    taken_branch_cost: float
    load_cost: float
    store_cost: float
    serialize_cost: float
    loop_base_cpi: float
    alias_penalties: tuple[float, ...]
    btb_sets: int
    fetch_line_bytes: int
    fetch_bubble_cycles: float
    pmc_msr_writes_per_counter: int
    driver_cost_scale: float
    p_states_ghz: tuple[float, ...] = field(default=())
    #: PERFEVTSEL decoding of ``event_codes``, shared by the MSR file
    #: of every core this processor boots.
    evtsel_codec: EvtselCodec = field(init=False, repr=False, compare=False)
    _p_states_hz: tuple[float, ...] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.freq_ghz <= 0:
            raise ConfigurationError(f"{self.key}: freq_ghz must be > 0")
        if self.n_prog_counters < 1:
            raise ConfigurationError(f"{self.key}: need >= 1 programmable counter")
        if Event.INSTR_RETIRED not in self.event_codes:
            raise ConfigurationError(
                f"{self.key}: INSTR_RETIRED must have a native encoding"
            )
        if self.p_states_ghz and self.freq_ghz != max(self.p_states_ghz):
            raise ConfigurationError(
                f"{self.key}: nominal frequency must be the top P-state"
            )
        # Derived once here rather than on every boot.
        object.__setattr__(self, "evtsel_codec", EvtselCodec(self.event_codes))
        object.__setattr__(self, "_p_states_hz", (
            tuple(ghz * 1e9 for ghz in sorted(self.p_states_ghz))
            if self.p_states_ghz
            else (self.freq_hz,)
        ))

    @property
    def freq_hz(self) -> float:
        return self.freq_ghz * 1e9

    @property
    def n_fixed_counters(self) -> int:
        """Fixed-function counters excluding the TSC (Table 1 counts the
        TSC separately as the '+1')."""
        return len(self.fixed_events)

    def supports_event(self, event: Event) -> bool:
        return event in self.event_codes

    def event_code(self, event: Event) -> int:
        """Native encoding for ``event`` on this µarch."""
        try:
            return self.event_codes[event]
        except KeyError:
            raise UnsupportedEventError(
                f"{self.key} has no native encoding for {event.value}"
            ) from None

    def make_pmu(self) -> Pmu:
        """Instantiate this processor's PMU."""
        return Pmu(
            n_programmable=self.n_prog_counters,
            fixed_events=self.fixed_events,
            counter_width=self.counter_width,
        )

    def make_timing(self) -> TimingModel:
        """Instantiate this processor's timing model."""
        return TimingModel(
            issue_width=self.issue_width,
            taken_branch_cost=self.taken_branch_cost,
            load_cost=self.load_cost,
            store_cost=self.store_cost,
            serialize_cost=self.serialize_cost,
            loop_base_cpi=self.loop_base_cpi,
            branch_model=BranchPlacementModel(
                btb_sets=self.btb_sets,
                alias_penalties=self.alias_penalties,
            ),
            fetch_model=FetchPlacementModel(
                line_bytes=self.fetch_line_bytes,
                bubble_cycles=self.fetch_bubble_cycles,
            ),
        )

    def p_states_hz(self) -> tuple[float, ...]:
        """Available frequencies in Hz (nominal only, if none declared)."""
        return self._p_states_hz
