"""repro.backend: pluggable execution backends.

Where batches of measurement jobs run: in-process (``inline``) or on
the persistent warm-worker fleet (``warm``).  The executor in
:mod:`repro.exec.executor` and the service scheduler both drive an
:class:`~repro.backend.base.ExecutionBackend`; which one is resolved
by :func:`~repro.backend.knobs.resolve_backend_name`
(``--backend`` / ``REPRO_BACKEND``).  See ``docs/backends.md``.
"""

from repro.backend.base import (
    GLOBAL_STATS,
    AdaptiveBatchSizer,
    BackendStats,
    CompletedBatch,
    ExecutionBackend,
    ExecutionOutcome,
)
from repro.backend.inline import InlineBackend
from repro.backend.knobs import (
    BACKEND_NAMES,
    resolve_backend_name,
    resolve_batch_cap,
    resolve_deadline,
    resolve_jobs,
    resolve_serve_slow_threshold,
    resolve_slow_threshold,
    set_default_backend,
    set_default_batch,
    set_default_deadline,
    set_default_jobs,
    set_default_slow_threshold,
)
from repro.backend.registry import (
    get_backend,
    make_backend,
    shared_backends,
    shutdown_backends,
)
from repro.backend.warm import WarmBackend, WorkerFailure, warm_available

__all__ = [
    "AdaptiveBatchSizer",
    "BACKEND_NAMES",
    "BackendStats",
    "CompletedBatch",
    "ExecutionBackend",
    "ExecutionOutcome",
    "GLOBAL_STATS",
    "InlineBackend",
    "WarmBackend",
    "WorkerFailure",
    "get_backend",
    "make_backend",
    "resolve_backend_name",
    "resolve_batch_cap",
    "resolve_deadline",
    "resolve_jobs",
    "resolve_serve_slow_threshold",
    "resolve_slow_threshold",
    "set_default_backend",
    "set_default_batch",
    "set_default_deadline",
    "set_default_jobs",
    "set_default_slow_threshold",
    "shared_backends",
    "shutdown_backends",
    "warm_available",
]
