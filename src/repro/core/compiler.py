"""The gcc 4.1.2 compilation model.

The paper compiles each (pattern × infrastructure) harness at each of
-O0..-O3 (Section 3.6).  Two consequences matter:

1. The benchmark itself is inline assembly, so *its* instruction count
   never changes — which is why the ANOVA finds the optimization level
   insignificant for instruction-count error (Section 4.3).

2. The *size* of the compiled harness code placed ahead of the loop
   does change — with the optimization level, the pattern (different
   call sequence), the infrastructure (different library stubs), and
   the number of counters (longer setup code).  That shifts the loop's
   address, which drives the placement-sensitive cycle behaviour of
   Section 6 (Figure 12: only the *combination* of pattern and
   optimization level determines the cycles-per-iteration slope).

This module computes those sizes and the resulting loop address; it
does not "compile" anything else.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.isa.layout import CodeLayout, CodeObject

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.config import MeasurementConfig


class OptLevel(enum.Enum):
    """gcc optimization levels (paper, Section 3.6)."""

    O0 = "-O0"
    O1 = "-O1"
    O2 = "-O2"
    O3 = "-O3"

    @property
    def size_factor(self) -> float:
        """Code-size multiplier relative to -O2.

        -O0 spills everything (largest); -O1 still branches more; -O3
        re-inflates through inlining and unrolling.
        """
        return _SIZE_FACTORS[self]


_SIZE_FACTORS = {
    OptLevel.O0: 1.62,
    OptLevel.O1: 1.17,
    OptLevel.O2: 1.00,
    OptLevel.O3: 1.31,
}

#: Harness calls emitted ahead of the benchmark, per pattern: the setup
#: and start-side calls (the read/stop side is linked after the loop).
_CALLS_BEFORE_LOOP = {
    "start-read": 3,   # setup, reset, start
    "start-stop": 3,
    "read-read": 3,    # setup, start, read(c0)
    "read-stop": 3,
}

#: Additional harness bytes ahead of the loop, per pattern.  The whole
#: pattern lives in one compiled function, so its *total* variable set
#: shapes the prologue (spills, stack frame, outgoing-arg area) that
#: precedes the inline asm: patterns with a c0 baseline keep an extra
#: result live, stop-based patterns reserve the stop call's argument
#: area.  These few bytes are what let a pattern change slip the loop
#: into a different BTB alias class (paper, Figure 12).
_PATTERN_EXTRA_BYTES = {
    "start-read": 0,
    "start-stop": 6,
    "read-read": 18,
    "read-stop": 26,
}

#: Per-call harness code bytes by API layer (argument setup + call +
#: result handling, at -O2).
_CALL_BYTES = {"direct": 38, "low": 54, "high": 66}

#: Static library/runtime code linked ahead of the harness, by
#: infrastructure family.
_RUNTIME_BYTES = {
    "pm": 5_240,
    "pc": 4_820,
    "PLpm": 7_710,
    "PLpc": 7_290,
    "PHpm": 8_660,
    "PHpc": 8_240,
}

_CRT0_BYTES = 1_184
_MAIN_PROLOGUE_BYTES = 96
_PER_COUNTER_SETUP_BYTES = 22


@dataclass(frozen=True)
class GccModel:
    """Deterministic size/placement model of gcc 4.1.2 on IA32."""

    function_align: int = 16
    text_base: int = 0x0804_8000

    def harness_bytes_before_benchmark(self, config: "MeasurementConfig") -> int:
        """Bytes of compiled harness code linked ahead of the benchmark."""
        from repro.core.config import api_level  # local to avoid a cycle

        calls = _CALLS_BEFORE_LOOP[config.pattern.value]
        per_call = _CALL_BYTES[api_level(config.infra)]
        raw = (
            _MAIN_PROLOGUE_BYTES
            + calls * per_call
            + _PATTERN_EXTRA_BYTES[config.pattern.value]
            + config.n_counters * _PER_COUNTER_SETUP_BYTES
        )
        return int(raw * config.opt_level.size_factor)

    def layout(self, config: "MeasurementConfig") -> CodeLayout:
        """Place crt0, the runtime, and the harness function.

        The benchmark is *not* a separate object: it is inline assembly
        inside the harness function, so its address is the harness
        address plus however much compiled code precedes it — which is
        exactly why pattern/opt-level changes shift the loop
        (Section 6).
        """
        layout = CodeLayout(
            base_address=self.text_base, function_align=self.function_align
        )
        layout.place(CodeObject("crt0", _CRT0_BYTES))
        layout.place(CodeObject("runtime", _RUNTIME_BYTES[config.infra]))
        layout.place(
            CodeObject("harness", self.harness_bytes_before_benchmark(config))
        )
        return layout

    def benchmark_address(self, config: "MeasurementConfig") -> int:
        """Address the inline benchmark lands at in this configuration.

        A pure function of the model and four of ``config``'s factors,
        memoized on exactly those: never on the config, which carries
        the seed and would give one entry per measurement.
        """
        key = (self, config.infra, config.pattern, config.n_counters,
               config.opt_level)
        address = _ADDRESS_MEMO.get(key)
        if address is None:
            address = self.layout(config).address_of("harness")
            address += self.harness_bytes_before_benchmark(config)
            if len(_ADDRESS_MEMO) >= _ADDRESS_MEMO_BOUND:
                _ADDRESS_MEMO.clear()
            _ADDRESS_MEMO[key] = address
        return address


#: Memo of :meth:`GccModel.benchmark_address`, keyed by the model and the
#: (infra, pattern, n_counters, opt_level) factors.  The paper's factor
#: space has about 1,700 such points; clear defensively past the bound.
_ADDRESS_MEMO: dict[tuple, int] = {}
_ADDRESS_MEMO_BOUND = 4096


#: The default compiler model used by measurements.
DEFAULT_GCC = GccModel()
