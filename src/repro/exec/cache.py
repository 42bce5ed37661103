"""Content-addressed result cache for measurement jobs.

Every measurement in the study is a pure function of its configuration:
the machine boots from a derived seed, so (config, benchmark identity,
seed, code version) fully determines the :class:`MeasurementResult`.
That makes results safe to memoize — Figures 7–12 share the bulk of
their loop sweeps, and ``reproduce all`` stops recomputing rows that an
earlier artifact already produced.  The cache is an in-memory LRU,
bounded by ``max_entries``.

Keys come from :func:`stable_token`: a SHA-256 over the job's factor
description plus :func:`code_version`, so a code change (version bump)
invalidates everything rather than serving stale rows.
"""

from __future__ import annotations

import functools
import hashlib
import os
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any

from repro.errors import ConfigurationError

#: Bump when the cached payload's schema changes (independently of the
#: package version, which also keys the token).
CACHE_SCHEMA_VERSION = 1

_MISSING = object()


@functools.cache
def code_version() -> str:
    """The code identity baked into every cache key (fixed per process)."""
    from repro import __version__

    return f"repro-{__version__}/schema-{CACHE_SCHEMA_VERSION}"


def stable_token(*parts: object) -> str:
    """A content-address for a job: SHA-256 of its factor description.

    The same factors always hash to the same token, across processes
    and platforms; any difference — including the code version, which
    is always mixed in — yields a different token.
    """
    text = "|".join(str(part) for part in (code_version(), *parts))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass
class CacheStats:
    """Hit/miss accounting, exposed for tests and reports."""

    hits: int = 0
    misses: int = 0
    stores: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses


@dataclass
class ResultCache:
    """A bounded LRU of job results.

    Attributes:
        max_entries: LRU bound (oldest evicted first).
    """

    max_entries: int = 65536
    stats: CacheStats = field(default_factory=CacheStats)

    def __post_init__(self) -> None:
        if self.max_entries < 1:
            raise ConfigurationError(
                f"max_entries must be >= 1, got {self.max_entries}"
            )
        self._memory: OrderedDict[str, Any] = OrderedDict()

    def __len__(self) -> int:
        return len(self._memory)

    def get(self, token: str) -> Any | None:
        """The cached result for ``token``, or None on a miss."""
        value = self._memory.get(token, _MISSING)
        if value is not _MISSING:
            self._memory.move_to_end(token)
            self.stats.hits += 1
            return value
        self.stats.misses += 1
        return None

    def put(self, token: str, value: Any) -> None:
        """Store a result under its content address."""
        self._memory[token] = value
        self._memory.move_to_end(token)
        while len(self._memory) > self.max_entries:
            self._memory.popitem(last=False)
        self.stats.stores += 1

    def clear(self) -> None:
        """Drop every entry."""
        self._memory.clear()


# -- the process-wide default cache ---------------------------------------

_UNSET = object()
_default: Any = _UNSET


def default_cache() -> ResultCache | None:
    """The shared cache executors use unless given one explicitly.

    ``REPRO_CACHE=off`` (read once, at first use) disables caching
    entirely.
    """
    global _default
    if _default is _UNSET:
        if os.environ.get("REPRO_CACHE", "").lower() in ("off", "0", "no"):
            _default = None
        else:
            _default = ResultCache()
    return _default


def configure_default_cache(
    enabled: bool = True, max_entries: int = 65536
) -> ResultCache | None:
    """Replace the process-wide default cache (CLI and test hook)."""
    global _default
    if not enabled:
        _default = None
    else:
        _default = ResultCache(max_entries=max_entries)
    return _default
