"""Structured logging: line-delimited JSON, never on stdout.

The CLI's stdout is machine-readable in several places (``repro list
--json``, ``repro submit``'s one-line acknowledgement, artifact
reports that tests byte-compare), so diagnostics must live elsewhere.
This logger writes one JSON object per line to **stderr** (or to a
file), with a stable envelope::

    {"ts": 1722870000.123456, "level": "warning", "event": "slow-job",
     "job": "job-3-ab12cd34", "run_seconds": 31.2}

Enabling, in precedence order:

* ``repro --log-json ...`` — force JSON logs onto stderr;
* ``REPRO_LOG=stderr`` (or ``1``/``true``) — same, via environment;
* ``REPRO_LOG=/path/to/file.jsonl`` — append to a file instead;
* otherwise the default logger is a no-op.

Loggers can be bound (:meth:`StructuredLogger.bind`) with fields that
every subsequent line carries.
"""

from __future__ import annotations

import io
import json
import os
import sys
import threading
import time
from typing import Any, Mapping, TextIO

_LEVELS = ("debug", "info", "warning", "error")

#: Values of ``REPRO_LOG`` that mean "stderr", not a file path.
_STDERR_VALUES = frozenset({"1", "true", "yes", "on", "stderr", "-"})


def _json_default(value: Any) -> str:
    return str(value)


class StructuredLogger:
    """Writes one compact JSON object per event, atomically per line."""

    def __init__(
        self,
        stream: TextIO | None = None,
        *,
        enabled: bool = True,
        path: "str | None" = None,
        bound: Mapping[str, Any] | None = None,
    ) -> None:
        self.enabled = enabled
        self.path = path
        self._stream = stream
        self._bound = dict(bound or {})
        self._lock = threading.Lock()

    def bind(self, **fields: Any) -> "StructuredLogger":
        """A child logger whose every line carries ``fields``."""
        child = StructuredLogger(
            stream=self._stream,
            enabled=self.enabled,
            path=self.path,
            bound={**self._bound, **fields},
        )
        child._lock = self._lock  # siblings share line atomicity
        return child

    # -- emission ----------------------------------------------------------

    def _target(self) -> TextIO:
        if self._stream is not None:
            return self._stream
        # Resolved late so pytest's capsys and test-time redirection of
        # sys.stderr are honoured.
        return sys.stderr

    def log(self, level: str, event: str, **fields: Any) -> None:
        if not self.enabled:
            return
        if level not in _LEVELS:
            level = "info"
        record: dict[str, Any] = {"ts": round(time.time(), 6), "level": level,
                                  "event": event}
        record.update(self._bound)
        record.update(fields)
        line = json.dumps(
            record, separators=(",", ":"), sort_keys=True,
            default=_json_default,
        )
        with self._lock:
            if self.path is not None:
                try:
                    with io.open(self.path, "a", encoding="utf-8") as handle:
                        handle.write(line + "\n")
                except OSError:
                    pass  # an unwritable log file must not kill the run
                return
            stream = self._target()
            try:
                stream.write(line + "\n")
                stream.flush()
            except (OSError, ValueError):
                pass

    def debug(self, event: str, **fields: Any) -> None:
        self.log("debug", event, **fields)

    def info(self, event: str, **fields: Any) -> None:
        self.log("info", event, **fields)

    def warning(self, event: str, **fields: Any) -> None:
        self.log("warning", event, **fields)

    def error(self, event: str, **fields: Any) -> None:
        self.log("error", event, **fields)


#: A logger that never writes — what get_logger() hands out when
#: nothing opted in.
NULL_LOGGER = StructuredLogger(enabled=False)

_default: StructuredLogger | None = None


def _from_environment() -> StructuredLogger:
    value = os.environ.get("REPRO_LOG", "").strip()
    if not value or value.lower() in ("0", "false", "no", "off"):
        return NULL_LOGGER
    if value.lower() in _STDERR_VALUES:
        return StructuredLogger()
    return StructuredLogger(path=value)


def get_logger() -> StructuredLogger:
    """The process-wide structured logger (``REPRO_LOG`` decides)."""
    global _default
    if _default is None:
        _default = _from_environment()
    return _default


def configure_logging(
    enabled: bool = True, path: "str | None" = None
) -> StructuredLogger:
    """Replace the process-wide logger (the CLI's ``--log-json``)."""
    global _default
    if not enabled:
        _default = NULL_LOGGER
    elif path is not None:
        _default = StructuredLogger(path=path)
    else:
        _default = StructuredLogger()
    return _default


def reset_logging() -> None:
    """Re-read ``REPRO_LOG`` on next :func:`get_logger` (test hook)."""
    global _default
    _default = None
