"""Retired-work accounting.

A :class:`WorkVector` is the architectural "receipt" for executing a
piece of code: how many instructions retired, how many of them were
branches, loads, stores, or serializing instructions.  The CPU layer
maps these fields onto micro-architectural PMU events and charges them
to whichever counters are live.

Work vectors are immutable value objects; composing code paths is plain
addition, and repeating a loop body is scalar multiplication.  This is
what lets the simulator execute a one-million-iteration benchmark in
O(number of interrupts) instead of O(instructions).
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True, slots=True)
class WorkVector:
    """Counts of retired architectural events for a code sequence.

    Attributes:
        instructions: total retired instructions (includes all below).
        branches: retired branch instructions (taken or not).
        taken_branches: retired branches that were taken.
        loads: retired instructions with a memory read.
        stores: retired instructions with a memory write.
        serializing: serializing instructions (CPUID, WRMSR, IRET...).
            These flush the pipeline and are charged extra cycles by the
            timing model.
        dcache_misses: loads that miss the first-level data cache.
            For analytically constructed benchmarks (Korn et al.-style
            array walks) this is part of the ground-truth model; for
            infrastructure code it models cache pollution.
        amounts: the countable fields, computed once at construction:
            ``(instructions, branches, taken_branches, loads, stores,
            dcache_misses)``, the order of
            ``repro.cpu.events.ARCHITECTURAL_EVENTS``.  Charging a
            retirement to a counter is then one tuple index.
    """

    instructions: int = 0
    branches: int = 0
    taken_branches: int = 0
    loads: int = 0
    stores: int = 0
    serializing: int = 0
    dcache_misses: int = 0
    amounts: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # This runs on every composed vector in the simulator's hottest
        # loops; the one chained comparison keeps the common (valid)
        # case free of the per-field walk, which only runs to name the
        # offending field on failure.
        if (
            self.instructions < 0
            or self.branches < 0
            or self.taken_branches < 0
            or self.loads < 0
            or self.stores < 0
            or self.serializing < 0
            or self.dcache_misses < 0
        ):
            for name in _FIELDS:
                value = getattr(self, name)
                if value < 0:
                    raise ValueError(
                        f"WorkVector.{name} must be >= 0, got {value}"
                    )
        if self.taken_branches > self.branches:
            raise ValueError(
                f"taken_branches ({self.taken_branches}) cannot exceed "
                f"branches ({self.branches})"
            )
        if self.dcache_misses > self.loads:
            raise ValueError(
                f"dcache_misses ({self.dcache_misses}) cannot exceed "
                f"loads ({self.loads})"
            )
        non_branch = self.branches + self.serializing
        if non_branch > self.instructions:
            raise ValueError(
                "instructions must cover branches and serializing instructions: "
                f"{self.instructions} < {non_branch}"
            )
        object.__setattr__(self, "amounts", (
            self.instructions,
            self.branches,
            self.taken_branches,
            self.loads,
            self.stores,
            self.dcache_misses,
        ))
        # The same value the generated field-tuple hash would give, so
        # hashed containers keep their iteration order; vectors are dict
        # keys on every retirement (the cycle memo), so it is cached.
        object.__setattr__(self, "_hash", hash((
            self.instructions,
            self.branches,
            self.taken_branches,
            self.loads,
            self.stores,
            self.serializing,
            self.dcache_misses,
        )))

    def __hash__(self) -> int:
        return self._hash

    def __add__(self, other: "WorkVector") -> "WorkVector":
        if not isinstance(other, WorkVector):
            return NotImplemented
        return WorkVector(
            instructions=self.instructions + other.instructions,
            branches=self.branches + other.branches,
            taken_branches=self.taken_branches + other.taken_branches,
            loads=self.loads + other.loads,
            stores=self.stores + other.stores,
            serializing=self.serializing + other.serializing,
            dcache_misses=self.dcache_misses + other.dcache_misses,
        )

    def __mul__(self, times: int) -> "WorkVector":
        if not isinstance(times, int):
            return NotImplemented
        if times < 0:
            raise ValueError(f"cannot repeat work a negative number of times: {times}")
        return WorkVector(
            instructions=self.instructions * times,
            branches=self.branches * times,
            taken_branches=self.taken_branches * times,
            loads=self.loads * times,
            stores=self.stores * times,
            serializing=self.serializing * times,
            dcache_misses=self.dcache_misses * times,
        )

    __rmul__ = __mul__

    @property
    def is_zero(self) -> bool:
        """True when this vector accounts for no retired work at all."""
        return self.instructions == 0

    @staticmethod
    def zero() -> "WorkVector":
        """The empty work vector (identity for addition)."""
        return _ZERO

    @staticmethod
    def single(kind: str = "alu") -> "WorkVector":
        """Work vector for one retired instruction of the given kind.

        ``kind`` is one of ``alu``, ``branch``, ``taken_branch``,
        ``load``, ``store``, ``serializing``.  The vectors are shared
        constants: the syscall and counter-access paths retire them on
        every call.
        """
        try:
            return _SINGLES[kind]
        except KeyError:
            raise ValueError(f"unknown instruction kind: {kind!r}") from None


_FIELDS = (
    "instructions",
    "branches",
    "taken_branches",
    "loads",
    "stores",
    "serializing",
    "dcache_misses",
)
_ZERO = WorkVector()
_SINGLES = {
    "alu": WorkVector(instructions=1),
    "branch": WorkVector(instructions=1, branches=1),
    "taken_branch": WorkVector(instructions=1, branches=1, taken_branches=1),
    "load": WorkVector(instructions=1, loads=1),
    "store": WorkVector(instructions=1, stores=1),
    "serializing": WorkVector(instructions=1, serializing=1),
}
