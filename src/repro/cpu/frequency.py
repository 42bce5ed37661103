"""CPU frequency scaling.

The paper's guidelines (Section 8) open with frequency scaling: with
the default power daemon active, the clock can change rarely, between
experiments, or mid-measurement — each producing a different error
signature in cycle counts.  The study pins the "performance" governor.

:class:`FrequencyPolicy` models a cpufreq governor over the processor's
P-states.  The kernel's timer path gives the governor periodic decision
points; the ``ondemand`` governor then walks among P-states (driven by
the machine's seeded RNG, standing in for workload-dependent load
estimates), while ``performance`` and ``powersave`` pin the extremes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError


class Governor(enum.Enum):
    """Linux cpufreq governors relevant to the study."""

    PERFORMANCE = "performance"
    POWERSAVE = "powersave"
    ONDEMAND = "ondemand"
    USERSPACE = "userspace"


@dataclass
class FrequencyPolicy:
    """Current core frequency under a cpufreq governor.

    Args:
        p_states_hz: available frequencies, ascending.
        governor: active governor.
        switch_probability: per-decision-point chance that ``ondemand``
            moves to a different P-state.
        userspace_hz: pinned frequency for the ``userspace`` governor.
    """

    p_states_hz: tuple[float, ...]
    governor: Governor = Governor.PERFORMANCE
    switch_probability: float = 0.2
    userspace_hz: float | None = None
    #: The core's current clock frequency.  A plain attribute, not a
    #: property: :meth:`repro.cpu.core.Core.retire` reads it on every
    #: retirement.
    current_hz: float = field(init=False, default=0.0)

    def __post_init__(self) -> None:
        if not self.p_states_hz:
            raise ConfigurationError("at least one P-state is required")
        if list(self.p_states_hz) != sorted(self.p_states_hz):
            raise ConfigurationError("P-states must be ascending")
        if not 0.0 <= self.switch_probability <= 1.0:
            raise ConfigurationError(
                f"switch_probability must be in [0, 1], got {self.switch_probability}"
            )
        if self.governor is Governor.USERSPACE:
            if self.userspace_hz not in self.p_states_hz:
                raise ConfigurationError(
                    "userspace governor needs userspace_hz set to a P-state"
                )
        self.reset()

    def reset(self) -> None:
        """Return the clock to the frequency the governor boots at."""
        self.current_hz = self._pinned_hz()

    def on_decision_point(self, rng: np.random.Generator) -> bool:
        """Give the governor a chance to retune; True if the clock moved.

        Called by the kernel from its timer path — matching how cpufreq
        sampling actually piggybacks on ticks.
        """
        if self.governor is not Governor.ONDEMAND:
            return False
        if len(self.p_states_hz) == 1:
            return False
        if rng.random() >= self.switch_probability:
            return False
        choices = [hz for hz in self.p_states_hz if hz != self.current_hz]
        self.current_hz = float(rng.choice(choices))
        return True

    def _pinned_hz(self) -> float:
        if self.governor is Governor.PERFORMANCE:
            return self.p_states_hz[-1]
        if self.governor is Governor.POWERSAVE:
            return self.p_states_hz[0]
        if self.governor is Governor.USERSPACE:
            assert self.userspace_hz is not None
            return self.userspace_hz
        # ondemand boots at the top state and wanders from there.
        return self.p_states_hz[-1]
