"""Backend registry: the shared backend instances.

:func:`get_backend` hands out *shared* instances keyed by
``(name, workers)`` — this is what makes the warm backend warm: every
``get_executor()`` call and every repeated sweep in one process lands
on the same persistent worker fleet instead of spawning a new one.  An
:mod:`atexit` hook shuts the fleet down.  Which name a run gets
(``--backend`` / ``REPRO_BACKEND``) is resolved by
:func:`repro.backend.knobs.resolve_backend_name`.
"""

from __future__ import annotations

import atexit
import threading
from typing import TYPE_CHECKING

from repro.backend.knobs import resolve_backend_name, resolve_jobs

if TYPE_CHECKING:
    from repro.backend.base import ExecutionBackend

_shared: "dict[tuple[str, int], ExecutionBackend]" = {}
#: Guards the check-then-insert on ``_shared``: threads that call
#: :func:`get_backend` concurrently must not each spawn a fleet.
_shared_lock = threading.Lock()
_atexit_registered = False


def make_backend(
    name: str,
    workers: "int | None" = None,
    batch_cap: "int | None" = None,
) -> "ExecutionBackend":
    """A fresh backend instance (callers own its lifecycle)."""
    if resolve_backend_name(name) == "inline":
        from repro.backend.inline import InlineBackend

        return InlineBackend(batch_cap=batch_cap)
    from repro.backend.warm import WarmBackend

    return WarmBackend(max_workers=workers, batch_cap=batch_cap)


def get_backend(
    name: "str | None" = None,
    jobs: "int | None" = None,
) -> "ExecutionBackend":
    """The shared backend for (resolved name, resolved workers).

    Sharing is the point: a warm fleet spawned for one plan serves the
    next one too.  Shut down process-wide via :func:`shutdown_backends`
    (registered atexit).
    """
    global _atexit_registered
    resolved = resolve_backend_name(name, jobs)
    workers = resolve_jobs(jobs) if resolved != "inline" else 1
    key = (resolved, workers)
    with _shared_lock:
        backend = _shared.get(key)
        if backend is None:
            backend = make_backend(resolved, workers=workers)
            _shared[key] = backend
            if not _atexit_registered:
                atexit.register(shutdown_backends)
                _atexit_registered = True
    return backend


def shared_backends() -> "list[ExecutionBackend]":
    """Every live shared instance (metrics iterate these)."""
    with _shared_lock:
        return list(_shared.values())


def shutdown_backends(grace: float = 5.0) -> None:
    """Stop every shared backend (atexit, and the test-suite reset)."""
    while True:
        with _shared_lock:
            if not _shared:
                return
            _, backend = _shared.popitem()
        try:
            backend.shutdown(grace=grace)
        except Exception:
            pass
