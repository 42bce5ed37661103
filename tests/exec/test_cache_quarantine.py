"""Corrupt disk-cache entries: miss and quarantine, never a crash.

A torn pickle, truncated file, or garbage bytes under the cache
directory must cost exactly one recompute: the reader serves a miss,
renames the poison aside (``.quarantined``) for a post-mortem, and
counts the incident — while concurrent readers racing the same entry
stay exception-free.  A full disk (ENOSPC from ``tempfile.mkstemp``)
costs the disk tier, never the run.  The tests make both faults
themselves: a patched ``mkstemp`` and entries truncated after ``put``.
"""

import errno
import itertools
import os
import pickle
import sys
import tempfile
import threading

import pytest

from repro.exec.cache import ResultCache
from repro.obs.metrics import build_unified_registry


TOKEN = "ab" + "cd" * 31  # hex-shaped, realistic two-char shard prefix


def entry_path(cache, token=TOKEN):
    return cache._path_for(token)


def plant_corruption(tmp_path, token=TOKEN, data=b"\x80torn pickle!"):
    cache = ResultCache(disk_dir=tmp_path)
    path = entry_path(cache, token)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(data)
    return cache, path


def tear(path):
    """Chop an entry in half, as a crash mid-write would leave it."""
    try:
        os.truncate(path, path.stat().st_size // 2)
    except FileNotFoundError:
        pass  # never landed (full disk), or a reader quarantined it


def full_disk(*args, **kwargs):
    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


class TestQuarantine:
    @pytest.mark.parametrize("data", [
        b"",                       # zero-length file
        b"\x80torn pickle!",       # garbage bytes
        pickle.dumps({"v": 1})[:-3],  # truncated mid-stream
    ])
    def test_corrupt_entry_is_a_miss_not_a_crash(self, tmp_path, data):
        cache, path = plant_corruption(tmp_path, data=data)
        assert cache.get(TOKEN) is None
        assert cache.stats.misses == 1
        assert cache.stats.quarantined == 1
        assert not path.exists()
        assert path.with_name(path.name + ".quarantined").exists()

    def test_quarantined_entry_can_be_rewritten_and_read(self, tmp_path):
        cache, _ = plant_corruption(tmp_path)
        assert cache.get(TOKEN) is None
        cache.put(TOKEN, {"fresh": True})
        # A second cache (no memory tier warm-up) reads the rewrite.
        assert ResultCache(disk_dir=tmp_path).get(TOKEN) == {"fresh": True}

    def test_quarantine_increments_the_unified_counter(self, tmp_path):
        registry = build_unified_registry()
        counter = registry.get("repro_cache_quarantined_total")
        before = counter.value
        cache, _ = plant_corruption(tmp_path)
        cache.get(TOKEN)
        assert counter.value == before + 1

    def test_missing_entry_is_a_plain_miss(self, tmp_path):
        cache = ResultCache(disk_dir=tmp_path)
        assert cache.get(TOKEN) is None
        assert cache.stats.quarantined == 0


class TestChaosWriteFaults:
    def test_enospc_degrades_to_memory_only(self, tmp_path, monkeypatch):
        monkeypatch.setattr(tempfile, "mkstemp", full_disk)
        cache = ResultCache(disk_dir=tmp_path)
        cache.put(TOKEN, {"v": 1})
        # The write was swallowed; the memory tier still serves.
        assert cache.get(TOKEN) == {"v": 1}
        assert not entry_path(cache).exists()
        # A fresh reader sees a miss, not an exception.
        assert ResultCache(disk_dir=tmp_path).get(TOKEN) is None

    def test_torn_write_quarantines_on_next_read(self, tmp_path):
        writer = ResultCache(disk_dir=tmp_path)
        writer.put(TOKEN, {"v": list(range(256))})
        tear(entry_path(writer))
        reader = ResultCache(disk_dir=tmp_path)
        assert reader.get(TOKEN) is None
        assert reader.stats.quarantined == 1

    def test_concurrent_readers_vs_faulty_writer_never_raise(
        self, tmp_path, monkeypatch
    ):
        # Readers hammering tokens while a writer's writes are being
        # torn and ENOSPC'd must only ever see a hit, a miss, or a
        # quarantine — never an exception.  Every third write finds
        # the disk full; every other entry that lands is torn.
        mkstemp = tempfile.mkstemp
        writes = itertools.count(1)

        def full_every_third(*args, **kwargs):
            if next(writes) % 3 == 0:
                full_disk()
            return mkstemp(*args, **kwargs)

        monkeypatch.setattr(tempfile, "mkstemp", full_every_third)
        tokens = [f"{i:02x}" + "ef" * 31 for i in range(16)]
        writer = ResultCache(disk_dir=tmp_path)
        errors = []
        stop = threading.Event()
        readers = [ResultCache(disk_dir=tmp_path) for _ in range(4)]

        def read_loop(cache):
            try:
                while not stop.is_set():
                    for token in tokens:
                        value = cache.get(token)
                        assert value is None or value["token"] == token
            except Exception as exc:  # pragma: no cover - the failure
                errors.append(exc)

        threads = [
            threading.Thread(target=read_loop, args=(cache,))
            for cache in readers
        ]
        # Four spinning readers hold the GIL between file operations, so
        # each time the writer's I/O releases it the writer waits out a
        # whole switch interval (5 ms by default) to get it back.  A short
        # interval stops that convoy without changing what the test races.
        switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)
        for thread in threads:
            thread.start()
        try:
            for round_number in range(30):
                for index, token in enumerate(tokens):
                    writer.put(token, {"token": token, "round": round_number})
                    if (index + round_number) % 2:
                        tear(entry_path(writer, token))
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=30.0)
            sys.setswitchinterval(switch_interval)
        assert not errors
        # The faults reached the readers: at least one of them
        # quarantined a torn entry.
        assert sum(cache.stats.quarantined for cache in readers) >= 1
