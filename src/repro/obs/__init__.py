"""`repro.obs`: where the time went, logs and service metrics.

Three parts, stdlib-only:

* **scopes** (:mod:`repro.obs.scopes`) — the per-scope accumulators
  behind ``repro trace <artifact|all>``: a timer at every layer
  boundary (the simulated CPU and kernel, the counter interfaces, the
  measurement core, the executor and backend, the experiments, the
  analysis and the rendering), each charging its self time to one
  scope, so the scopes close to the traced wall time.  Only the
  ``trace`` command imports it; an untraced run executes none of it;
* **logging** (:mod:`repro.obs.logging`) — line-delimited JSON
  structured logs behind ``REPRO_LOG`` / ``repro --log-json``, always
  off stdout so machine-readable output stays parseable;
* **metrics** (:mod:`repro.obs.metrics`) — the unified
  :class:`MetricsRegistry`: queue/scheduler/executor/cache instruments
  in one inventory, rendered by the service ``metrics`` request and
  ``repro status --metrics``.

Tracing is strictly an observer: artifact outputs are byte-identical
with and without it.
"""

from repro.obs.logging import (
    NULL_LOGGER,
    StructuredLogger,
    configure_logging,
    get_logger,
    reset_logging,
)
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    HistogramFamily,
    MetricsRegistry,
    build_unified_registry,
)

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "HistogramFamily",
    "MetricsRegistry",
    "NULL_LOGGER",
    "StructuredLogger",
    "build_unified_registry",
    "configure_logging",
    "get_logger",
    "reset_logging",
]
