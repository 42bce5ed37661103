"""Crash-safe sweep journal: resume a killed ``reproduce`` run.

A sweep is a pure function of its plan — every job carries its
complete seed — so a run that dies (OOM, power loss, SIGKILL) has
lost nothing but time: the finished jobs would produce byte-identical
results if re-run.  The journal makes that time recoverable.  While a
journalled run executes, every completed job's ``(cache token,
result)`` is appended to a sidecar file and fsync'd; a restart with
``--resume`` loads the sidecar, serves the recorded jobs without
executing them, and recomputes only what is missing.  Because results
are reassembled in plan order either way, the merged artifact is
byte-identical to an uninterrupted run — the integration tests'
``TestCrashSafeResume`` SIGKILLs a run mid-sweep and proves it.

Record format (append-only, little-endian)::

    +------------+------------+----------------------+
    | body bytes | body crc32 |   pickled (token,    |
    | u32        | u32        |   result) body       |
    +------------+------------+----------------------+

A crash can tear the *last* record mid-write; loading tolerates that
by truncating the file back to the last intact record (the crc makes
"intact" checkable), so the journal itself needs no recovery step.
Records are keyed by the job's content-address
(:func:`repro.exec.cache.stable_token`), which bakes in the code
version — a journal written by different code never resurrects stale
rows, its tokens simply match nothing.
"""

from __future__ import annotations

import os
import pickle
import struct
import zlib
from pathlib import Path
from typing import Any

from repro.exec.cache import stable_token

_RECORD_HEAD = struct.Struct("<II")

#: One record's body may not exceed this (a torn length prefix must
#: not look like a huge allocation request).
_MAX_BODY = 256 * 1024 * 1024


class SweepJournal:
    """Append-only journal of completed jobs, keyed by cache token."""

    def __init__(self, path: "str | Path") -> None:
        self.path = Path(path)
        self._entries: dict[str, Any] = {}
        self._handle = None

    # -- lifecycle ----------------------------------------------------------

    def open(self) -> int:
        """Load surviving records and open for appending.

        Returns how many completed jobs were restored.  A torn tail
        (crash mid-append) is truncated away; everything before it is
        kept.
        """
        self.path.parent.mkdir(parents=True, exist_ok=True)
        good_end = 0
        if self.path.exists():
            with self.path.open("rb") as handle:
                data = handle.read()
            offset = 0
            while True:
                head_end = offset + _RECORD_HEAD.size
                if head_end > len(data):
                    break
                length, crc = _RECORD_HEAD.unpack_from(data, offset)
                body_end = head_end + length
                if length > _MAX_BODY or body_end > len(data):
                    break
                body = data[head_end:body_end]
                if zlib.crc32(body) != crc:
                    break
                try:
                    token, value = pickle.loads(body)
                except Exception:
                    break
                self._entries[token] = value
                good_end = offset = body_end
            if good_end < len(data):
                with self.path.open("r+b") as handle:
                    handle.truncate(good_end)
        self._handle = self.path.open("ab")
        return len(self._entries)

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def discard(self) -> None:
        """Close and delete the sidecar (the run completed)."""
        self.close()
        try:
            self.path.unlink()
        except OSError:
            pass

    # -- recording ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, token: str) -> Any:
        """The journalled result for ``token``, or None."""
        return self._entries.get(token)

    def append(self, token: str, value: Any) -> None:
        """Record one completed job, durably (flush + fsync)."""
        if token in self._entries:
            return
        self._entries[token] = value
        if self._handle is None:
            return
        body = pickle.dumps((token, value), protocol=pickle.HIGHEST_PROTOCOL)
        self._handle.write(_RECORD_HEAD.pack(len(body), zlib.crc32(body)))
        self._handle.write(body)
        self._handle.flush()
        os.fsync(self._handle.fileno())


def journal_path(directory: "str | Path", *parts: object) -> Path:
    """Where the journal for one run lives, addressed by its identity.

    ``parts`` describe the run (artifact, repeats, seed…); the file
    name is their stable token, so re-running the *same* sweep finds
    its journal and a different sweep never collides with it.
    """
    return Path(directory) / f"{stable_token('journal', *parts)}.journal"


# -- the process-wide active journal ---------------------------------------

_active: "SweepJournal | None" = None


def set_active_journal(journal: "SweepJournal | None") -> None:
    """Install the journal executors should consult and feed."""
    global _active
    _active = journal


def active_journal() -> "SweepJournal | None":
    return _active
