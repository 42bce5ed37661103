"""The chaos spec grammar: which faults to inject, how, and when.

A chaos spec is a semicolon-separated list of fault clauses::

    SPEC   := clause (';' clause)*
    clause := point (':' param (',' param)*)?
    param  := key '=' value

``point`` names a registered fault point (:data:`FAULT_POINTS`); the
parameters tune how it fires:

========= ======================================================== =======
key       meaning                                                  default
========= ======================================================== =======
``p``     probability of firing per evaluation (0..1)              1.0
``seed``  seed of the point's dedicated RNG stream                 0
``times`` maximum number of fires (unlimited when omitted)         —
``stall`` seconds a stalled component sleeps (``slow-worker``)     5.0
========= ======================================================== =======

Examples::

    worker-kill:p=0.05,seed=7
    frame-corrupt:p=0.1,seed=2,times=3;cache-torn:p=1
    slow-worker:p=1,times=1,stall=2.5

Every fault point draws from its *own* seeded RNG stream, so a chaos
run is replayable: the same spec fires the same faults in the same
order at each point, independent of what the other points do.
Unknown points and malformed parameters raise
:class:`~repro.errors.ConfigurationError` — a typo must fail loudly at
the CLI, not silently inject nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError

#: Every registered fault point and where in the stack it fires.
FAULT_POINTS: dict[str, str] = {
    "worker-kill": (
        "SIGKILL a warm worker right after a batch lands on it "
        "(warm backend coordinator)"
    ),
    "frame-corrupt": (
        "flip bits in the result bytes read off a worker pipe "
        "(warm backend coordinator)"
    ),
    "slow-worker": (
        "stall a warm worker for `stall` seconds before it runs a batch "
        "(evaluated at dispatch by the coordinator, so the firing "
        "budget is fleet-global)"
    ),
    "cache-torn": (
        "truncate a disk-cache entry right after its atomic replace "
        "(torn write; repro.exec.cache)"
    ),
    "cache-enospc": (
        "fail a disk-cache write with ENOSPC (repro.exec.cache)"
    ),
    "queue-full": (
        "reject a service submission with queue-full backpressure "
        "(service scheduler admission)"
    ),
    "conn-drop": (
        "drop the client connection before the response is written "
        "(service server)"
    ),
}

#: Parameter keys every clause accepts (plus point-specific ones below).
_COMMON_KEYS = ("p", "seed", "times")
_POINT_KEYS: dict[str, tuple[str, ...]] = {
    "slow-worker": ("stall",),
}


@dataclass(frozen=True)
class FaultSpec:
    """One parsed fault clause: a point plus its firing parameters."""

    point: str
    probability: float = 1.0
    seed: int = 0
    times: int | None = None
    #: Point-specific numeric parameters (e.g. ``stall`` seconds).
    params: tuple[tuple[str, float], ...] = field(default=())

    def __post_init__(self) -> None:
        if self.point not in FAULT_POINTS:
            known = ", ".join(sorted(FAULT_POINTS))
            raise ConfigurationError(
                f"unknown chaos fault point {self.point!r}; known: {known}"
            )
        if not 0.0 <= self.probability <= 1.0:
            raise ConfigurationError(
                f"chaos probability must be in [0, 1], got {self.probability}"
            )
        if self.times is not None and self.times < 1:
            raise ConfigurationError(
                f"chaos times must be >= 1, got {self.times}"
            )

    def param(self, key: str, default: float) -> float:
        """A point-specific parameter, or its default."""
        for name, value in self.params:
            if name == key:
                return value
        return default

    def render(self) -> str:
        """The clause back in spec grammar (round-trips via parse)."""
        parts = [f"p={self.probability:g}", f"seed={self.seed}"]
        if self.times is not None:
            parts.append(f"times={self.times}")
        parts.extend(f"{key}={value:g}" for key, value in self.params)
        return f"{self.point}:{','.join(parts)}"


def _parse_clause(clause: str) -> FaultSpec:
    point, _, params_text = clause.partition(":")
    point = point.strip().lower()
    if not point:
        raise ConfigurationError(f"empty chaos clause in {clause!r}")
    probability = 1.0
    seed = 0
    times: int | None = None
    extras: list[tuple[str, float]] = []
    allowed = _COMMON_KEYS + _POINT_KEYS.get(point, ())
    if params_text.strip():
        for param in params_text.split(","):
            key, sep, value = (part.strip() for part in param.partition("="))
            if not sep or not key or not value:
                raise ConfigurationError(
                    f"chaos parameter must be key=value, got {param!r}"
                )
            if key not in allowed:
                raise ConfigurationError(
                    f"unknown chaos parameter {key!r} for point {point!r}; "
                    f"allowed: {', '.join(allowed)}"
                )
            try:
                if key == "p":
                    probability = float(value)
                elif key == "seed":
                    seed = int(value)
                elif key == "times":
                    times = int(value)
                else:
                    extras.append((key, float(value)))
            except ValueError:
                raise ConfigurationError(
                    f"chaos parameter {key}={value!r} is not a number"
                ) from None
    return FaultSpec(
        point=point,
        probability=probability,
        seed=seed,
        times=times,
        params=tuple(extras),
    )


def parse_chaos_spec(text: str) -> tuple[FaultSpec, ...]:
    """Parse ``--chaos`` / ``REPRO_CHAOS`` text into fault specs.

    Raises :class:`~repro.errors.ConfigurationError` on unknown points,
    malformed parameters, or a point configured twice (two RNG streams
    for one point would make replay ambiguous).
    """
    specs: list[FaultSpec] = []
    seen: set[str] = set()
    for clause in text.split(";"):
        clause = clause.strip()
        if not clause:
            continue
        spec = _parse_clause(clause)
        if spec.point in seen:
            raise ConfigurationError(
                f"chaos point {spec.point!r} configured twice in {text!r}"
            )
        seen.add(spec.point)
        specs.append(spec)
    if not specs:
        raise ConfigurationError(f"chaos spec {text!r} names no fault point")
    return tuple(specs)
