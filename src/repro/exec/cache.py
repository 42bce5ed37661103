"""Content-addressed result cache for measurement jobs.

Every measurement in the study is a pure function of its configuration:
the machine boots from a derived seed, so (config, benchmark identity,
seed, code version) fully determines the :class:`MeasurementResult`.
That makes results safe to memoize — Figures 7–12 share the bulk of
their loop sweeps, and ``reproduce all`` stops recomputing rows that an
earlier artifact already produced.

Two tiers:

* an in-memory LRU (always on, bounded by ``max_entries``);
* an optional on-disk store under ``.repro-cache/`` (opt in via
  ``REPRO_CACHE_DIR`` or ``repro reproduce --cache-dir``), content-
  addressed by the job token so concurrent writers cannot disagree.

Keys come from :func:`stable_token`: a SHA-256 over the job's factor
description plus :func:`code_version`, so a code change (version bump)
invalidates everything rather than serving stale rows.
"""

from __future__ import annotations

import errno
import functools
import hashlib
import logging
import os
import pickle
import tempfile
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.chaos import should_fire as chaos_should_fire
from repro.errors import ConfigurationError
from repro.obs.metrics import inc_counter

log = logging.getLogger("repro.exec.cache")

#: Bump when the cached payload's schema changes (independently of the
#: package version, which also keys the token).
CACHE_SCHEMA_VERSION = 1

#: Default location of the on-disk store, relative to the working dir.
DEFAULT_CACHE_DIR = ".repro-cache"

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
    disk_hits: int = 0
    #: Corrupt disk entries renamed aside (served as misses, never
    #: raised).
    quarantined: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses


@dataclass
class ResultCache:
    """A bounded LRU of job results, optionally backed by a disk store.

    Attributes:
        max_entries: in-memory LRU bound (oldest evicted first).
        disk_dir: root of the on-disk store, or None for memory only.
    """

    max_entries: int = 65536
    disk_dir: Path | None = None
    stats: CacheStats = field(default_factory=CacheStats)

    def __post_init__(self) -> None:
        if self.max_entries < 1:
            raise ConfigurationError(
                f"max_entries must be >= 1, got {self.max_entries}"
            )
        if self.disk_dir is not None:
            self.disk_dir = Path(self.disk_dir)
        self._memory: OrderedDict[str, Any] = OrderedDict()

    def __len__(self) -> int:
        return len(self._memory)

    # -- lookup ------------------------------------------------------------

    def get(self, token: str) -> Any | None:
        """The cached result for ``token``, or None on a miss."""
        value = self._memory.get(token, _MISSING)
        if value is not _MISSING:
            self._memory.move_to_end(token)
            self.stats.hits += 1
            return value
        value = self._disk_get(token)
        if value is not _MISSING:
            self._remember(token, value)
            self.stats.hits += 1
            self.stats.disk_hits += 1
            return value
        self.stats.misses += 1
        return None

    def put(self, token: str, value: Any) -> None:
        """Store a result under its content address."""
        self._remember(token, value)
        self.stats.stores += 1
        if self.disk_dir is not None:
            self._disk_put(token, value)

    def clear(self) -> None:
        """Drop the in-memory tier (the disk store is left alone)."""
        self._memory.clear()

    # -- internals ---------------------------------------------------------

    def _remember(self, token: str, value: Any) -> None:
        self._memory[token] = value
        self._memory.move_to_end(token)
        while len(self._memory) > self.max_entries:
            self._memory.popitem(last=False)

    def _path_for(self, token: str) -> Path:
        assert self.disk_dir is not None
        return self.disk_dir / token[:2] / f"{token[2:]}.pkl"

    def _disk_get(self, token: str) -> Any:
        if self.disk_dir is None:
            return _MISSING
        path = self._path_for(token)
        try:
            with path.open("rb") as handle:
                return pickle.load(handle)
        except FileNotFoundError:
            return _MISSING
        except OSError:
            return _MISSING  # unreadable (permissions, I/O): recompute
        except Exception as exc:
            # The file exists but its bytes do not unpickle (torn
            # write, bit rot, a truncating crash).  Rename it aside so
            # the poison is kept for a post-mortem but never read
            # again, count the incident, and serve a miss — corruption
            # must cost a recompute, never a crash.
            self._quarantine(path, exc)
            return _MISSING

    def _quarantine(self, path: Path, exc: Exception) -> None:
        self.stats.quarantined += 1
        inc_counter("repro_cache_quarantined_total")
        log.warning("quarantining corrupt cache entry %s (%s)", path, exc)
        try:
            os.replace(path, f"{path}.quarantined")
        except OSError:
            # A concurrent reader already moved it (or the dir went
            # away); either way the entry is gone, which is the point.
            pass

    def _disk_put(self, token: str, value: Any) -> None:
        path = self._path_for(token)
        try:
            if chaos_should_fire("cache-enospc"):
                raise OSError(errno.ENOSPC, "chaos: injected ENOSPC")
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as handle:
                    pickle.dump(value, handle)
                os.replace(tmp, path)  # atomic: concurrent writers agree
            finally:
                if os.path.exists(tmp):
                    os.unlink(tmp)
            if chaos_should_fire("cache-torn"):
                # Simulate a torn write: chop the freshly landed entry
                # in half, the way a crash mid-write (on a filesystem
                # without atomic rename durability) would.
                size = path.stat().st_size
                with path.open("r+b") as handle:
                    handle.truncate(max(1, size // 2))
        except OSError:
            pass  # a read-only or full disk degrades to memory-only


# -- the process-wide default cache ---------------------------------------

_UNSET = object()
_default: Any = _UNSET


def default_cache() -> ResultCache | None:
    """The shared cache executors use unless given one explicitly.

    Environment knobs (read once, at first use):

    * ``REPRO_CACHE=off`` disables caching entirely;
    * ``REPRO_CACHE_DIR=<path>`` adds the on-disk tier.
    """
    global _default
    if _default is _UNSET:
        if os.environ.get("REPRO_CACHE", "").lower() in ("off", "0", "no"):
            _default = None
        else:
            disk = os.environ.get("REPRO_CACHE_DIR") or None
            _default = ResultCache(disk_dir=Path(disk) if disk else None)
    return _default


def configure_default_cache(
    enabled: bool = True,
    disk_dir: "str | Path | None" = None,
    max_entries: int = 65536,
) -> ResultCache | None:
    """Replace the process-wide default cache (CLI and test hook)."""
    global _default
    if not enabled:
        _default = None
    else:
        _default = ResultCache(
            max_entries=max_entries,
            disk_dir=Path(disk_dir) if disk_dir else None,
        )
    return _default
