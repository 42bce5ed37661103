"""Boot snapshots: exact restore, LRU bounds, store accounting.

The invariant that matters: a machine booted from a snapshot image is
indistinguishable from a cold boot — same chunks, same random stream,
same measured counts.  Everything else here is bookkeeping (hits,
misses, evictions, the env kill-switch).
"""

import pickle

import pytest

from repro.core.benchmarks import NullBenchmark
from repro.core.config import MeasurementConfig
from repro.core.measurement import run_measurement
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

    def test_env_kill_switch_disables_the_store(self, monkeypatch):
        monkeypatch.setenv("REPRO_SNAPSHOTS", "off")
        monkeypatch.setattr(snapshot_mod, "_default", snapshot_mod._UNSET)
        assert snapshot_mod.default_store() is None
        # boot_image still works, capturing fresh every time.
        a = boot_image("CD", "perfctr")
        b = boot_image("CD", "perfctr")
        assert a is not b
