"""`repro.obs`: end-to-end tracing and unified telemetry.

The stack now has four layers between a request and a simulated
retirement — CLI/service front-ends, the scheduler and its queue, the
executors, and the measurement core — and this package makes one job's
path through all of them observable, stdlib-only:

* **spans** (:mod:`repro.obs.spans`) — :class:`Span` /
  :class:`TraceContext` with trace/span ids minted at submission and
  propagated through every layer (including across the worker-process
  boundary via picklable carriers), gathered by a
  :class:`TraceCollector` on a shared :class:`Timebase`;
* **export** (:mod:`repro.obs.export`) — Chrome ``trace_event`` JSON
  (``--trace-out``, loadable in Perfetto / ``chrome://tracing``) with
  a CI-grade validator (``python -m repro.obs.export trace.json``);
* **logging** (:mod:`repro.obs.logging`) — line-delimited JSON
  structured logs behind ``REPRO_LOG`` / ``repro --log-json``, always
  off stdout so machine-readable output stays parseable;
* **metrics** (:mod:`repro.obs.metrics`) — the unified
  :class:`MetricsRegistry` (promoted from ``repro.service.metrics``):
  queue/scheduler/executor/cache/span instruments in one inventory,
  rendered identically by the service ``metrics`` request and the
  ``repro metrics`` CLI dump;
* **report** (:mod:`repro.obs.report`) — the per-layer
  time/retirement breakdown behind ``repro trace <artifact>`` (and,
  via ``--json``, its machine-readable twin);

Tracing is strictly an observer: artifact outputs are byte-identical
with and without a collector active.
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
    build_service_registry,
    build_unified_registry,
    default_registry,
    reset_default_registry,
)
from repro.obs.spans import (
    Span,
    Timebase,
    TraceCollector,
    TraceContext,
    activate,
    carrier,
    collector_from_carrier,
    current_collector,
    current_context,
    enable_retirements,
    new_span_id,
    new_trace_id,
    retirements_enabled,
    span,
)

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "HistogramFamily",
    "MetricsRegistry",
    "NULL_LOGGER",
    "Span",
    "StructuredLogger",
    "Timebase",
    "TraceCollector",
    "TraceContext",
    "activate",
    "build_service_registry",
    "build_unified_registry",
    "carrier",
    "collector_from_carrier",
    "configure_logging",
    "current_collector",
    "current_context",
    "default_registry",
    "enable_retirements",
    "get_logger",
    "new_span_id",
    "new_trace_id",
    "reset_default_registry",
    "reset_logging",
    "retirements_enabled",
    "span",
]
