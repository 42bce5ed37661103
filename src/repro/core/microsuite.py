"""Additional analytical micro-benchmarks (Araiza et al.'s proposal).

The paper's related work (Araiza et al., TAPIA'05) proposes a
cross-platform suite of micro-benchmarks whose event counts can be
determined analytically, to validate counter measurements.  Beyond the
paper's null and loop benchmarks (:mod:`repro.core.benchmarks`), this
module contributes three more, each pinning a different event family:

* :class:`DependencyChainBenchmark` — pure serial ALU work, the
  baseline for retired-instruction validation;
* :class:`BranchPatternBenchmark` — a loop with a *predictable inner
  branch pattern*, giving analytical taken/not-taken branch counts;
* :class:`SyscallBenchmark` — deliberately enters the kernel, the one
  benchmark with a non-zero kernel-mode ground truth, which exercises
  mode attribution end to end.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.benchmarks import Benchmark
from repro.errors import ConfigurationError
from repro.isa.block import Chunk, Loop
from repro.isa.work import WorkVector

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.kernel.system import Machine

#: Syscall number of the deliberately trivial "getpid"-style call the
#: SyscallBenchmark issues (registered lazily on first run).
SYS_BENCH_NOP = 399

#: Kernel instructions the nop syscall's handler retires.
NOP_HANDLER_INSTRUCTIONS = 12


class DependencyChainBenchmark(Benchmark):
    """A serial chain of dependent adds: ``n`` instructions, no memory,
    no branches — the purest retired-instruction workload."""

    name = "dependency-chain"

    def __init__(self, length: int) -> None:
        if length < 1:
            raise ConfigurationError(f"need >= 1 instruction, got {length}")
        self.length = length
        self.params = (length,)
        self._chunk = Chunk(
            WorkVector(instructions=length),
            label="dependency-chain",
            size_bytes=min(length * 3, 4096),  # unrolled up to a page
        )

    def expected_work(self) -> WorkVector:
        return self._chunk.work

    def run(self, machine: "Machine", address: int) -> None:
        del address  # straight-line code: placement-insensitive
        machine.core.execute_chunk(self._chunk)

    @property
    def code_size_bytes(self) -> int:
        return self._chunk.size_bytes


class BranchPatternBenchmark(Benchmark):
    """A loop whose inner branch alternates taken/not-taken.

    Per iteration: 2 ALU, one inner conditional (taken on every second
    iteration), and the taken back-edge — 4 instructions, 2 branches.
    With ``iterations`` even, exactly ``iterations/2`` inner branches
    are taken, so the taken-branch ground truth is analytical.
    """

    name = "branch-pattern"

    def __init__(self, iterations: int) -> None:
        if iterations < 2 or iterations % 2:
            raise ConfigurationError(
                f"iterations must be even and >= 2, got {iterations}"
            )
        self.iterations = iterations
        self.params = (iterations,)
        # Model two iterations at a time so the per-body work is exact:
        # inner branch taken once per pair.
        pair = WorkVector(
            instructions=8,
            branches=4,           # two inner + two back-edges
            taken_branches=3,     # one inner + two back-edges
        )
        self._loop = Loop(
            body=Chunk(pair, label="branch-pattern-body", size_bytes=18),
            trips=iterations // 2,
            header=Chunk(WorkVector(instructions=1), size_bytes=5),
            label="branch-pattern",
        )

    def expected_work(self) -> WorkVector:
        return self._loop.total_work()

    @property
    def expected_taken_branches(self) -> int:
        return self.expected_work().taken_branches

    def run(self, machine: "Machine", address: int) -> None:
        machine.core.execute_loop(self._loop, address)

    @property
    def code_size_bytes(self) -> int:
        return self._loop.size_bytes


class SyscallBenchmark(Benchmark):
    """``n`` back-to-back trivial system calls.

    The only micro-benchmark with kernel-mode ground truth: each call
    retires 1 user trap instruction, the kernel entry/exit paths, the
    ``NOP_HANDLER_INSTRUCTIONS``-instruction handler, and the
    return-to-user instruction.  The expected kernel count therefore
    depends on the *booted kernel's* entry/exit costs, so
    :meth:`expected_kernel_instructions` takes the machine.
    """

    name = "syscall"

    def __init__(self, calls: int) -> None:
        if calls < 1:
            raise ConfigurationError(f"need >= 1 call, got {calls}")
        self.calls = calls
        self.params = (calls,)

    def expected_work(self) -> WorkVector:
        """User-mode ground truth: one trap instruction per call."""
        return WorkVector(instructions=self.calls)

    def expected_kernel_instructions(self, machine: "Machine") -> int:
        """Kernel-mode ground truth on a specific kernel build."""
        costs = machine.build.costs
        per_call = (
            costs.syscall_entry
            + NOP_HANDLER_INSTRUCTIONS
            + costs.syscall_exit
            + 1  # the sysexit instruction retires in kernel mode
        )
        return self.calls * per_call

    def run(self, machine: "Machine", address: int) -> None:
        del address
        self._ensure_registered(machine)
        for _ in range(self.calls):
            machine.syscall(SYS_BENCH_NOP)

    @property
    def code_size_bytes(self) -> int:
        return 12

    @staticmethod
    def _ensure_registered(machine: "Machine") -> None:
        if SYS_BENCH_NOP in machine.syscalls.registered():
            return
        from repro.kernel.kcode import kernel_chunk

        handler_chunk = kernel_chunk(
            NOP_HANDLER_INSTRUCTIONS, "kernel:sys-bench-nop"
        )

        def handler() -> int:
            machine.core.execute_chunk(handler_chunk)
            return 0

        machine.syscalls.register(SYS_BENCH_NOP, "sys_bench_nop", handler)
