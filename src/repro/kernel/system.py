"""The machine: a booted processor + kernel + counter extension.

:class:`Machine` is the top of the substrate stack and the object the
measurement harness drives.  Booting one mirrors the paper's setup: you
pick a processor (``PD``, ``CD``, ``K8``), one of the two patched
kernel builds (``perfctr`` or ``perfmon``; ``vanilla`` has no counter
extension), and a cpufreq governor (the paper pins ``performance`` —
Section 3.2).

Example:
    >>> machine = Machine(processor="CD", kernel="perfctr", seed=1)
    >>> machine.uarch.marketing_name
    'Core 2 Duo E6600'
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.cpu.core import Core
from repro.cpu.events import PrivLevel
from repro.cpu.frequency import Governor
from repro.cpu.models import MicroArch
from repro.errors import MachineStateError
from repro.isa.work import WorkVector
from repro.kernel.calibration import KernelBuildConfig
from repro.kernel.interrupts import InterruptController
from repro.kernel.scheduler import Scheduler
from repro.kernel.snapshot import BootImage, boot_image
from repro.kernel.syscalls import SyscallTable
from repro.kernel.thread import Thread


class Machine:
    """A booted simulated system.

    Args:
        processor: paper key of the processor (``PD``, ``CD``, ``K8``).
        kernel: kernel build name (``perfctr``, ``perfmon``, ``vanilla``).
        seed: seed for every random draw this machine will ever make.
        governor: cpufreq governor (the paper pins ``performance``).
        io_interrupts: deliver stochastic non-timer interrupts.
        quantum_ticks: scheduler time slice, in timer ticks.
        loop_warmup: charge first-iteration warm-up cycles to loops.
        image: a captured :class:`~repro.kernel.snapshot.BootImage` to
            boot from; when omitted, one is fetched from the default
            snapshot store (and ``processor``/``kernel`` select it).
            An explicit image overrides ``processor`` and ``kernel``.
    """

    def __init__(
        self,
        processor: "str | MicroArch" = "CD",
        kernel: "str | KernelBuildConfig" = "perfctr",
        seed: int = 0,
        governor: Governor = Governor.PERFORMANCE,
        io_interrupts: bool = True,
        quantum_ticks: int = 20,
        loop_warmup: bool = True,
        image: BootImage | None = None,
    ) -> None:
        # The seed-independent half of the boot (registry validation,
        # timing model, kernel chunk builds) comes from a snapshot
        # image; identical templates share one image via the default
        # store.  Everything below this line is seed-dependent and is
        # built fresh, in cold-boot order, so the machine draws the
        # same random stream either way.
        if image is None:
            image = boot_image(processor, kernel)
        self.image = image
        self.build = image.build
        self.rng = np.random.default_rng(seed)
        self.uarch: MicroArch = image.uarch
        self.core = Core(
            self.uarch, self.rng, governor=governor, timing=image.timing,
            cycle_memos=image.cycle_memos,
        )
        if not loop_warmup:
            self.core.loop_warmup_cycles = 0.0
        self.syscalls = SyscallTable()
        self.scheduler = Scheduler(
            self.core, self.build, quantum_ticks,
            switch_chunk=image.chunks.context_switch,
        )
        self.controller = InterruptController(
            self.build, self.scheduler, self.rng,
            io_interrupts=io_interrupts, chunks=image.chunks,
        )
        self.core.interrupt_source = self.controller
        skid = image.skid
        self.core.skid_probability = skid.probability
        self.core.skid_bias = skid.bias
        self.core.skid_magnitude = skid.magnitude
        self.extension: Any = self._install_extension()
        self.main_thread: Thread = self.scheduler.spawn("main")
        self._entry_chunk = image.chunks.syscall_entry
        self._exit_chunk = image.chunks.syscall_exit
        # Boot complete: hand the core to user space.
        self.core.mode = PrivLevel.USER

    # -- system-call round trip ----------------------------------------------

    def syscall(self, number: int, *args: Any) -> Any:
        """Full privileged round trip for one system call.

        Retires the trap instruction in user mode, the kernel entry
        path, the registered handler (which retires its own kernel
        work), the kernel exit path, and the return-to-user
        instruction — every one of them visible to counters whose
        privilege filter matches.
        """
        core = self.core
        if core.mode is not PrivLevel.USER:
            raise MachineStateError("syscall issued while already in kernel mode")
        core.retire(WorkVector.single("alu"))  # sysenter/int80
        core.mode = PrivLevel.KERNEL
        try:
            core.execute_chunk(self._entry_chunk)
            result = self.syscalls.dispatch(number, *args)
            core.execute_chunk(self._exit_chunk)
            core.retire(WorkVector.single("serializing"))  # sysexit/iret
        finally:
            core.mode = PrivLevel.USER
        return result

    # -- conveniences ----------------------------------------------------------

    @property
    def current_thread(self) -> Thread:
        thread = self.scheduler.current
        if thread is None:
            raise MachineStateError("no runnable thread")
        return thread

    @property
    def processor_key(self) -> str:
        return self.uarch.key

    @property
    def kernel_name(self) -> str:
        return self.build.name

    @property
    def substrate_name(self) -> str | None:
        """Which counter extension this kernel carries, if any."""
        if "perfctr" in self.build.name:
            return "perfctr"
        if "perfmon" in self.build.name:
            return "perfmon"
        return None

    def _install_extension(self) -> Any:
        # Derived from the build name so ablation builds ("perfctr-hz100")
        # still get their extension.
        if "perfctr" in self.build.name:
            from repro.perfctr.kext import PerfctrKext

            return PerfctrKext(self)
        if "perfmon" in self.build.name:
            from repro.perfmon.kext import PerfmonKext

            return PerfmonKext(self)
        return None
