"""Round-robin scheduler with counter-aware context switches.

The scheduler itself knows nothing about performance counters — exactly
like the unpatched kernel.  The counter extensions register *switch
listeners* (the paper's Section 2.3: "the operating system's context
switch code has to be extended to save and restore the counter
registers"), and those listeners retire the extension's share of the
switch cost and swap the virtualized counter state.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.errors import MachineStateError
from repro.isa.block import Chunk
from repro.kernel.calibration import KernelBuildConfig
from repro.kernel.thread import Thread

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cpu.core import Core

SwitchListener = Callable[[Thread, Thread], None]


class Scheduler:
    """Round-robin over runnable threads, driven by the timer tick."""

    def __init__(
        self,
        core: "Core",
        build: KernelBuildConfig,
        quantum_ticks: int = 20,
        switch_chunk: Chunk | None = None,
    ) -> None:
        if quantum_ticks < 1:
            raise MachineStateError(f"quantum must be >= 1 tick, got {quantum_ticks}")
        self.core = core
        self.build = build
        self.quantum_ticks = quantum_ticks
        self.threads: list[Thread] = []
        self.current: Thread | None = None
        self.switch_listeners: list[SwitchListener] = []
        self.switches = 0
        self._next_tid = 1
        self._ticks_in_quantum = 0
        # Boot snapshots pass the prebuilt chunk; a bare Scheduler
        # builds its own.
        self._switch_chunk = (
            switch_chunk
            if switch_chunk is not None
            else build.costs.context_switch_chunk()
        )

    def spawn(self, name: str) -> Thread:
        """Create a runnable thread."""
        thread = Thread(tid=self._next_tid, name=name)
        self._next_tid += 1
        self.threads.append(thread)
        if self.current is None:
            self.current = thread
        return thread

    def exit_thread(self, thread: Thread) -> None:
        """Terminate ``thread``; the next runnable thread takes over."""
        thread.alive = False
        if thread is self.current:
            runnable = self._runnable()
            if runnable:
                self._switch_to(runnable[0])
            else:
                self.current = None

    def add_switch_listener(self, listener: SwitchListener) -> None:
        """Extensions hook context switches here (save/restore counters)."""
        self.switch_listeners.append(listener)

    def on_tick(self) -> None:
        """Timer-tick hook: preempt when the quantum expires."""
        self._ticks_in_quantum += 1
        if self._ticks_in_quantum < self.quantum_ticks:
            return
        self._ticks_in_quantum = 0
        runnable = self._runnable()
        if len(runnable) < 2 or self.current is None:
            return
        index = runnable.index(self.current)
        self._switch_to(runnable[(index + 1) % len(runnable)])

    def _switch_to(self, thread: Thread) -> None:
        previous = self.current
        if previous is thread or previous is None:
            self.current = thread
            return
        self.switches += 1
        # The generic switch cost retires in kernel mode; callers (tick
        # handler) have already masked interrupts and entered the kernel.
        self.core.execute_chunk(self._switch_chunk)
        for listener in self.switch_listeners:
            listener(previous, thread)
        self.current = thread

    def _runnable(self) -> list[Thread]:
        return [t for t in self.threads if t.alive]
