"""Unit tests for the content-addressed result cache (repro.exec.cache)."""

import pytest

from repro.errors import ConfigurationError
from repro.exec.cache import (
    ResultCache,
    code_version,
    configure_default_cache,
    default_cache,
    stable_token,
)


class TestStableToken:
    def test_same_factors_same_token(self):
        assert stable_token("a", 1, True) == stable_token("a", 1, True)

    def test_any_factor_difference_changes_token(self):
        base = stable_token("a", 1)
        assert stable_token("a", 2) != base
        assert stable_token("b", 1) != base
        assert stable_token("a", 1, None) != base

    def test_code_version_is_mixed_in(self, monkeypatch):
        before = stable_token("a")
        monkeypatch.setattr(
            "repro.exec.cache.code_version", lambda: "other-version"
        )
        assert stable_token("a") != before

    def test_code_version_names_package_and_schema(self):
        assert code_version().startswith("repro-")
        assert "/schema-" in code_version()


class TestMemoryTier:
    def test_round_trip_and_stats(self):
        cache = ResultCache()
        token = stable_token("x")
        assert cache.get(token) is None
        cache.put(token, {"value": 41})
        assert cache.get(token) == {"value": 41}
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.stores == 1

    def test_lru_evicts_oldest(self):
        cache = ResultCache(max_entries=2)
        cache.put("t1", 1)
        cache.put("t2", 2)
        cache.put("t3", 3)
        assert len(cache) == 2
        assert cache.get("t1") is None
        assert cache.get("t3") == 3

    def test_get_refreshes_recency(self):
        cache = ResultCache(max_entries=2)
        cache.put("t1", 1)
        cache.put("t2", 2)
        cache.get("t1")  # t1 is now most recent; t2 must evict first
        cache.put("t3", 3)
        assert cache.get("t1") == 1
        assert cache.get("t2") is None

    def test_clear_drops_memory(self):
        cache = ResultCache()
        cache.put("t", 1)
        cache.clear()
        assert len(cache) == 0

    def test_invalid_bound_rejected(self):
        with pytest.raises(ConfigurationError, match="max_entries"):
            ResultCache(max_entries=0)


class TestDiskTier:
    """There is no disk tier: results live in memory and die with it."""

    def test_memory_only_never_touches_disk(self, tmp_path, monkeypatch):
        # The retired disk tier wrote under ``.repro-cache/`` in the
        # working directory; the default cache writes nothing at all.
        monkeypatch.chdir(tmp_path)
        cache = configure_default_cache(enabled=True)
        try:
            token = stable_token("mem")
            cache.put(token, "value")
            assert cache.get(token) == "value"
        finally:
            configure_default_cache(enabled=True)
        assert list(tmp_path.iterdir()) == []


class TestDefaultCache:
    @pytest.fixture(autouse=True)
    def _restore_default(self):
        yield
        configure_default_cache(enabled=True)

    def test_configure_disables_and_reenables(self):
        assert configure_default_cache(enabled=False) is None
        assert default_cache() is None
        cache = configure_default_cache(enabled=True)
        assert default_cache() is cache
