"""Boot snapshots: exact restore, LRU bounds, store accounting.

The invariant that matters: a machine booted from a snapshot image is
indistinguishable from a cold boot — same chunks, same random stream,
same measured counts.  Everything else here is bookkeeping (hits,
misses, evictions, the off switch).
"""

import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.benchmarks import LoopBenchmark, NullBenchmark
from repro.core.config import MeasurementConfig
from repro.core.measurement import run_measurement
from repro.cpu.events import Event, PrivFilter
from repro.errors import ConfigurationError
from repro.kernel import snapshot as snapshot_mod
from repro.kernel.calibration import KERNEL_BUILDS, KernelBuildConfig
from repro.kernel.snapshot import (
    BootImage,
    KernelChunkSet,
    SnapshotStore,
    boot_image,
    configure_default_store,
)
from repro.kernel.system import Machine
from repro.perfctr.libperfctr import LibPerfctr

from tests.kernel.machine_state import dirty, machine_state


@pytest.fixture(autouse=True)
def fresh_default_store():
    configure_default_store(enabled=True)
    yield
    configure_default_store(enabled=True)


class TestBootImage:
    def test_capture_resolves_registries(self):
        image = BootImage.capture("CD", "perfctr")
        assert image.uarch.key == "CD"
        assert image.build is KERNEL_BUILDS["perfctr"]
        assert image.chunks.ext_tick_hook is not None

    def test_unknown_kernel_build_message_is_preserved(self):
        with pytest.raises(ConfigurationError, match="unknown kernel build"):
            BootImage.capture("CD", "bogus")

    def test_unknown_processor_message_is_preserved(self):
        with pytest.raises(ConfigurationError, match="unknown processor"):
            BootImage.capture("Z80", "perfctr")

    def test_vanilla_build_has_no_ext_hook(self):
        image = BootImage.capture("CD", "vanilla")
        assert image.chunks.ext_tick_hook is None

    def test_image_is_picklable(self):
        image = BootImage.capture("K8", "perfmon")
        clone = pickle.loads(pickle.dumps(image))
        assert clone.build.name == "perfmon"
        assert clone.chunks.timer_tick.work == image.chunks.timer_tick.work

    def test_chunk_set_matches_build_costs(self):
        build = KERNEL_BUILDS["perfmon"]
        chunks = KernelChunkSet.for_build(build)
        assert chunks.syscall_entry == build.costs.syscall_entry_chunk()
        assert chunks.context_switch == build.costs.context_switch_chunk()


class TestSnapshotBootEquivalence:
    def test_snapshot_boot_equals_cold_boot(self):
        """The load-bearing claim: image boots replay the cold boot."""
        image = BootImage.capture("CD", "perfctr")
        for seed in (0, 7, 123):
            configure_default_store(enabled=False)
            cold = Machine(processor="CD", kernel="perfctr", seed=seed)
            warm = Machine(seed=seed, image=image)
            # Identical post-boot random state → identical futures.
            assert (
                cold.rng.bit_generator.state == warm.rng.bit_generator.state
            )
            assert cold.controller.next_timer_s == warm.controller.next_timer_s
            assert cold.controller.next_io_s == warm.controller.next_io_s

    def test_reset_after_a_dirty_measurement_equals_cold_boot(self):
        """A reused machine: after a measurement that took interrupts
        and left state of every kind behind, a reset leaves the state
        and the random stream of a cold boot with the same seed."""
        image = BootImage.capture("CD", "perfctr")
        machine = Machine(seed=99, image=image)
        for seed in (0, 7, 123):
            lib = LibPerfctr(machine)
            lib.open()
            lib.control(((Event.INSTR_RETIRED, PrivFilter.ALL),))
            LoopBenchmark(2_000_000).run(machine, address=0x0804_9000)
            lib.read()
            assert machine.controller.ticks_delivered > 0
            dirty(machine)
            machine.reset(seed)
            configure_default_store(enabled=False)
            cold = Machine(processor="CD", kernel="perfctr", seed=seed)
            configure_default_store(enabled=True)
            assert (
                cold.rng.bit_generator.state
                == machine.rng.bit_generator.state
            )
            assert cold.controller.next_timer_s == machine.controller.next_timer_s
            assert cold.controller.next_io_s == machine.controller.next_io_s
            assert machine_state(machine) == machine_state(cold)

    def test_measurements_identical_with_store_on_and_off(self):
        config = MeasurementConfig(seed=11)
        configure_default_store(enabled=True)
        with_store = [
            run_measurement(config, NullBenchmark()).deltas for _ in range(3)
        ]
        configure_default_store(enabled=False)
        without = run_measurement(config, NullBenchmark()).deltas
        assert all(deltas == without for deltas in with_store)

    def test_explicit_image_overrides_template_args(self):
        image = boot_image("K8", "perfmon")
        machine = Machine(processor="CD", kernel="perfctr", image=image)
        assert machine.processor_key == "K8"
        assert machine.kernel_name == "perfmon"


class TestSnapshotStore:
    def test_hits_after_first_capture(self):
        store = SnapshotStore()
        first = store.image("CD", "perfctr")
        second = store.image("CD", "perfctr")
        assert first is second
        assert store.stats.hits == 1
        assert store.stats.misses == 1
        assert store.stats.lookups == 2

    def test_lru_eviction_drops_oldest_template(self):
        store = SnapshotStore(max_entries=2)
        store.image("CD", "perfctr")
        store.image("CD", "perfmon")
        store.image("CD", "vanilla")  # evicts ("CD", "perfctr")
        assert len(store) == 2
        assert store.stats.evictions == 1
        store.image("CD", "perfctr")  # must re-capture
        assert store.stats.misses == 4

    def test_lookup_refreshes_recency(self):
        store = SnapshotStore(max_entries=2)
        store.image("CD", "perfctr")
        store.image("CD", "perfmon")
        store.image("CD", "perfctr")  # touch: perfmon is now LRU
        store.image("CD", "vanilla")
        store.image("CD", "perfctr")
        assert store.stats.hits == 2

    def test_custom_build_objects_bypass_the_store(self):
        store = SnapshotStore()
        build = KernelBuildConfig(name="perfctr-hz100", hz=100)
        first = store.image("CD", build)
        second = store.image("CD", build)
        assert first is not second
        assert store.stats.lookups == 0
        assert len(store) == 0

    def test_bound_must_be_positive(self):
        with pytest.raises(ConfigurationError, match="max_entries"):
            SnapshotStore(max_entries=0)

    def test_machine_boots_hit_the_default_store(self):
        store = configure_default_store(enabled=True)
        Machine(seed=1)
        Machine(seed=2)
        assert store.stats.hits == 1
        assert store.stats.misses == 1

    def test_repeated_template_measurements_capture_once(self):
        # A sweep's inner loop: one template, varying seeds.
        store = configure_default_store(enabled=True)
        for seed in range(20):
            run_measurement(
                MeasurementConfig(
                    processor="CD", infra="pc", seed=seed,
                    io_interrupts=False,
                ),
                NullBenchmark(),
            )
        assert store.stats.misses == 1
        assert store.stats.hits == 19

    def test_env_kill_switch_disables_the_store(self):
        # The REPRO_SNAPSHOTS knob is gone: a fresh process that has it
        # set still shares one image between boots.
        code = (
            "from repro.kernel.snapshot import boot_image; "
            "print(boot_image('CD', 'perfctr') is boot_image('CD', 'perfctr'))"
        )
        src = str(Path(__file__).resolve().parents[2] / "src")
        env = dict(os.environ, REPRO_SNAPSHOTS="off")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            check=True, env=env,
        ).stdout
        assert out.strip() == "True"
        # The test hook still turns the store off; boot_image then
        # captures fresh every time.
        configure_default_store(enabled=False)
        assert snapshot_mod.default_store() is None
        a = boot_image("CD", "perfctr")
        b = boot_image("CD", "perfctr")
        assert a is not b
