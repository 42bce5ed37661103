"""`repro.service`: the measurement engine as a long-lived service.

PR 1 turned every paper artifact into a picklable
:class:`~repro.exec.plan.MeasurementPlan` with deterministic executors
and a content-addressed cache; this package exposes that engine over a
socket so benchmark requests can be *submitted* rather than hard-coded
into one-shot CLI runs (the shape nanoBench-style harnesses and online
correction systems such as BayesPerf argue for).

Five layers, bottom-up:

* **protocol** (:mod:`repro.service.protocol`) — versioned
  request/response dataclasses over line-delimited JSON: submit
  (artifact or declarative plan), status, result, cancel, list,
  health, metrics;
* **queue** (:mod:`repro.service.queue`) — a bounded priority job
  queue with backpressure (reject-with-retry-after when full) and
  round-robin fairness across clients inside each priority class;
* **scheduler** (:mod:`repro.service.scheduler`) — drains the queue
  onto the :mod:`repro.exec` engine, coalescing duplicate in-flight
  submissions by their cache token so identical requests share one
  computation;
* **server** (:mod:`repro.service.server`) — the asyncio streams
  front-end: per-request timeouts, structured error responses,
  graceful shutdown;
* **client** (:mod:`repro.service.client`) — a blocking client, the
  substrate of the ``repro serve`` / ``repro submit`` /
  ``repro status`` CLI subcommands;
* **metrics** (:mod:`repro.obs.metrics`) — counters, gauges and
  latency histograms (queue depth, jobs completed/failed, cache hit
  rate from :class:`~repro.exec.cache.CacheStats`) rendered in
  Prometheus text form via the ``metrics`` request.

Everything is stdlib-only.  Results served for an artifact are
byte-identical to ``repro reproduce`` of the same artifact and seed —
the service adds transport, not computation.

Typical embedded use (tests do exactly this)::

    from repro.service import ServiceClient, ServiceInThread

    with ServiceInThread() as handle:
        with ServiceClient(handle.host, handle.port) as client:
            job = client.submit_artifact("figure4", repeats=1)
            result = client.wait(job["id"])
            print(result["report"])
"""

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.service.client import (
    RetryBudgetExceeded,
    ServiceClient,
    ServiceConnectionError,
    ServiceError,
    submit_with_retry,
)
from repro.service.protocol import (
    PROTOCOL_VERSION,
    CancelRequest,
    HealthRequest,
    ListRequest,
    MetricsRequest,
    ProtocolError,
    Request,
    Response,
    ResultRequest,
    StatusRequest,
    SubmitRequest,
    parse_request,
)
from repro.service.queue import JobQueue, QueueFull
from repro.service.scheduler import (
    JobRecord,
    JobState,
    Scheduler,
    SchedulerClosed,
    SchedulerStats,
    artifact_job,
    plan_job,
)
from repro.service.server import MeasurementServer, ServiceInThread, run_service

__all__ = [
    "CancelRequest",
    "Counter",
    "Gauge",
    "HealthRequest",
    "Histogram",
    "JobQueue",
    "JobRecord",
    "JobState",
    "ListRequest",
    "MeasurementServer",
    "MetricsRegistry",
    "MetricsRequest",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "QueueFull",
    "Request",
    "Response",
    "ResultRequest",
    "RetryBudgetExceeded",
    "Scheduler",
    "SchedulerClosed",
    "SchedulerStats",
    "ServiceClient",
    "ServiceConnectionError",
    "ServiceError",
    "ServiceInThread",
    "StatusRequest",
    "SubmitRequest",
    "artifact_job",
    "parse_request",
    "plan_job",
    "run_service",
    "submit_with_retry",
]
