"""Machine boot snapshots: boot a template once, restore per seed.

A paper-scale sweep (Figures 4-12, the Section 4.3 ANOVA) runs the same
(processor, kernel, governor) *template* thousands of times, varying
only the seed.  Booting a :class:`~repro.kernel.system.Machine` from
scratch repeats work that cannot depend on the seed: registry lookups,
micro-architecture validation, timing-model construction, and building
every kernel code-path chunk.  This module captures that seed-
independent boot state once per template as a :class:`BootImage` — a
frozen, picklable bundle of immutable value objects — and the
:class:`SnapshotStore` hands it to every subsequent boot.

Restoring is exact, not approximate: everything in an image is an
immutable value object (chunks, timing model, skid config), so a
machine booted from an image is indistinguishable from a cold boot —
the byte-identity tests in ``tests/kernel/test_snapshot.py`` and the
golden-artifact pins in ``tests/integration`` prove it.  All
seed-dependent state (the RNG, interrupt phases, counter values) is
built fresh per boot, in the same order as a cold boot, so the machines
draw identical random streams.

The store is always on and LRU-bounded by ``max_entries``;
:func:`configure_default_store` replaces it, or turns it off so that
every boot captures a fresh image (the cold-boot reference).  Hit/miss
accounting feeds, via the executors,
:class:`~repro.exec.executor.ExecutorStats`, and ``repro trace``'s
exact counts.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Iterable

from repro.cpu.core import WorkCost
from repro.cpu.models import MicroArch, microarch
from repro.cpu.timing import TimingModel
from repro.errors import ConfigurationError
from repro.isa.block import Chunk
from repro.isa.work import WorkVector
from repro.kernel.calibration import KERNEL_BUILDS, KernelBuildConfig, SkidConfig
from repro.kernel.kcode import kernel_chunk


@dataclass(frozen=True)
class KernelChunkSet:
    """Every generic kernel code path of one build, prebuilt.

    Chunks are immutable value objects; sharing one set across all
    machines booted from the same build is behaviour-preserving.
    """

    syscall_entry: Chunk
    syscall_exit: Chunk
    irq_entry: Chunk
    irq_exit: Chunk
    timer_tick: Chunk
    context_switch: Chunk
    governor: Chunk
    ext_tick_hook: Chunk | None

    @classmethod
    def for_build(cls, build: KernelBuildConfig) -> "KernelChunkSet":
        costs = build.costs
        return cls(
            syscall_entry=costs.syscall_entry_chunk(),
            syscall_exit=costs.syscall_exit_chunk(),
            irq_entry=costs.irq_entry_chunk(),
            irq_exit=costs.irq_exit_chunk(),
            timer_tick=costs.timer_tick_chunk(),
            context_switch=costs.context_switch_chunk(),
            governor=costs.governor_chunk(),
            ext_tick_hook=(
                kernel_chunk(build.ext_tick_hook, f"{build.name}:tick-hook")
                if build.ext_tick_hook
                else None
            ),
        )


@dataclass(frozen=True)
class BootImage:
    """The seed-independent half of a booted machine.

    Everything here is immutable and picklable, so images can cross the
    worker-process boundary and live in a bounded store.  The seed-
    dependent half (RNG, interrupt phases, counters, threads) is built
    fresh on every boot from the image.

    The one mutable member is ``cycle_memos``, the straight-line cycle
    memo of every core booted from the image: ``timing``'s cost of each
    retired work vector (its cycles and charge vector), keyed by clock
    ratio.  It is a pure cache, so sharing it changes no count, and a
    template's thousands of boots compute each cost once instead of
    once per boot.
    """

    uarch: MicroArch
    build: KernelBuildConfig
    timing: TimingModel
    chunks: KernelChunkSet
    skid: SkidConfig
    #: The counter extension class the build carries, or None.
    extension: type | None
    cycle_memos: dict[float, dict[WorkVector, WorkCost]] = field(
        default_factory=dict, compare=False, repr=False
    )

    @classmethod
    def capture(
        cls,
        processor: "str | MicroArch",
        kernel: "str | KernelBuildConfig",
    ) -> "BootImage":
        """Boot one template's immutable state (a cold boot's slow half)."""
        if isinstance(kernel, KernelBuildConfig):
            build = kernel
        else:
            try:
                build = KERNEL_BUILDS[kernel]
            except KeyError:
                known = ", ".join(sorted(KERNEL_BUILDS))
                raise ConfigurationError(
                    f"unknown kernel build {kernel!r}; known builds: {known}"
                ) from None
        uarch = processor if isinstance(processor, MicroArch) else microarch(processor)
        return cls(
            uarch=uarch,
            build=build,
            timing=uarch.make_timing(),
            chunks=KernelChunkSet.for_build(build),
            skid=build.skid_for(uarch.key),
            extension=_extension_for(build),
        )


def _extension_for(build: KernelBuildConfig) -> type | None:
    """The counter extension a kernel build carries.

    Derived from the build name so ablation builds ("perfctr-hz100")
    still get their extension.
    """
    if "perfctr" in build.name:
        from repro.perfctr.kext import PerfctrKext

        return PerfctrKext
    if "perfmon" in build.name:
        from repro.perfmon.kext import PerfmonKext

        return PerfmonKext
    return None


@dataclass
class SnapshotStats:
    """Store accounting: how many boots the snapshot tier absorbed."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses


#: Process-lifetime aggregate over every store instance, read by
#: ``repro trace`` and sampled by the executors for
#: ``ExecutorStats.snapshot_hits``.
GLOBAL_STATS = SnapshotStats()


@dataclass
class SnapshotStore:
    """An LRU-bounded map from boot template to :class:`BootImage`.

    Only registry templates — (processor key, kernel build name)
    strings — are cached; ablation studies booting bespoke
    :class:`KernelBuildConfig` objects bypass the store, because object
    identity is not a stable content address.
    """

    max_entries: int = 64
    stats: SnapshotStats = field(default_factory=SnapshotStats)

    def __post_init__(self) -> None:
        if self.max_entries < 1:
            raise ConfigurationError(
                f"max_entries must be >= 1, got {self.max_entries}"
            )
        self._images: OrderedDict[tuple[str, str], BootImage] = OrderedDict()

    def __len__(self) -> int:
        return len(self._images)

    def image(
        self,
        processor: "str | MicroArch",
        kernel: "str | KernelBuildConfig",
    ) -> BootImage:
        """The boot image for a template, captured on first use."""
        if not (isinstance(processor, str) and isinstance(kernel, str)):
            return BootImage.capture(processor, kernel)
        key = (processor, kernel)
        image = self._images.get(key)
        if image is not None:
            self._images.move_to_end(key)
            self.stats.hits += 1
            GLOBAL_STATS.hits += 1
            return image
        image = BootImage.capture(processor, kernel)
        self.stats.misses += 1
        GLOBAL_STATS.misses += 1
        self._images[key] = image
        while len(self._images) > self.max_entries:
            self._images.popitem(last=False)
            self.stats.evictions += 1
            GLOBAL_STATS.evictions += 1
        return image

    def clear(self) -> None:
        self._images.clear()


# -- the process-wide default store ----------------------------------------

_default: "SnapshotStore | None" = SnapshotStore()


def default_store() -> "SnapshotStore | None":
    """The shared store boots use, or None when snapshots are off.

    The store is a pure cache and is always on, except after
    :func:`configure_default_store` turned it off.
    """
    return _default


def configure_default_store(
    enabled: bool = True, max_entries: int = 64
) -> "SnapshotStore | None":
    """Replace the process-wide store (test and tooling hook).

    ``enabled=False`` makes every boot capture a fresh image: the
    cold-boot reference the byte-identity tests compare against.
    """
    global _default
    _default = SnapshotStore(max_entries=max_entries) if enabled else None
    return _default


def boot_image(
    processor: "str | MicroArch", kernel: "str | KernelBuildConfig"
) -> BootImage:
    """An image for the template, via the default store when enabled."""
    store = default_store()
    if store is None:
        return BootImage.capture(processor, kernel)
    return store.image(processor, kernel)


def preload_images(templates: "Iterable[tuple[str, str]]") -> int:
    """Capture boot images for (processor, kernel) templates up front.

    The warm backend's workers call this when the coordinator registers
    a plan's templates, so the slow half of every boot is already in the
    store before the first job arrives.  Returns how many images were
    newly captured (0 when snapshots are off — preloading a disabled
    store must not re-enable caching).
    """
    store = default_store()
    if store is None:
        return 0
    captured = 0
    for processor, kernel in templates:
        before = len(store)
        store.image(processor, kernel)
        captured += len(store) - before
    return captured


def snapshot_hits_total() -> int:
    """Process-lifetime snapshot hits (for executor stats deltas)."""
    return GLOBAL_STATS.hits
