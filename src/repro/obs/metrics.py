"""Unified metrics: counters, gauges, histograms, Prometheus text.

A tiny, dependency-free metrics layer with the semantics scrapers
expect: monotonic counters (``*_total``), point-in-time gauges
(optionally computed by callback at render time, which is how cache
statistics from :class:`~repro.exec.cache.CacheStats` are wired in
without polling), and cumulative-bucket latency histograms — plus
labelled histogram *families* (one child per label value, e.g. a
duration histogram per artifact).

This module is the one registry definition for the whole stack: the
service front-end, the scheduler, the executors and the result cache
all register into an instrument set built by
:func:`build_unified_registry`, which the service's ``metrics``
request renders.

``MetricsRegistry.render()`` produces the Prometheus text exposition
format (``# HELP`` / ``# TYPE`` then samples).  Instruments are plain
objects: ``inc``/``set``/``observe`` are O(1) and safe to call from
the event loop's hot path.
"""

from __future__ import annotations

import bisect
import math
import weakref
from typing import Callable, Iterable

_NAME_OK = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_:"
)

#: Default latency buckets (seconds) — sub-ms cache hits to minute-long
#: paper-scale sweeps.
DEFAULT_BUCKETS = (0.001, 0.005, 0.025, 0.1, 0.5, 1.0, 5.0, 30.0, 120.0)


def _check_name(name: str) -> str:
    if not name or not set(name) <= _NAME_OK or name[0].isdigit():
        raise ValueError(f"invalid metric name {name!r}")
    return name


def _format_value(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if value == float("inf"):
        return "+Inf"
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, int) or float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _check_buckets(buckets: "tuple[float, ...]") -> tuple[float, ...]:
    """Normalize histogram bucket bounds: finite, strictly increasing.

    Duplicate bounds would render two samples with the same ``le``
    label (invalid exposition), and a non-finite bound would shadow
    the implicit ``+Inf`` bucket — both are configuration errors, not
    data, so they fail loudly at registration.
    """
    if not buckets:
        raise ValueError("histogram needs at least one bucket bound")
    normalized = tuple(float(b) for b in buckets)
    for bound in normalized:
        if not math.isfinite(bound):
            raise ValueError(
                f"bucket bounds must be finite (+Inf is implicit): {buckets}"
            )
    if any(b >= a for b, a in zip(normalized, normalized[1:])):
        raise ValueError(
            f"buckets must be strictly increasing: {buckets}"
        )
    return normalized


class Counter:
    """A monotonically increasing count."""

    kind = "counter"

    def __init__(self, name: str, help: str) -> None:
        self.name = _check_name(name)
        self.help = help
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up; got {amount}")
        self.value += amount

    def samples(self) -> Iterable[tuple[str, float]]:
        yield self.name, self.value


class Gauge:
    """A settable level, or a callback evaluated at render time."""

    kind = "gauge"

    def __init__(
        self, name: str, help: str, fn: Callable[[], float] | None = None
    ) -> None:
        self.name = _check_name(name)
        self.help = help
        self.fn = fn
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount

    def samples(self) -> Iterable[tuple[str, float]]:
        value = self.value if self.fn is None else float(self.fn())
        yield self.name, value


class Histogram:
    """Cumulative-bucket distribution (Prometheus ``le`` convention).

    An observation exactly equal to a bucket's upper bound lands *in*
    that bucket: ``le`` means less-than-**or-equal**, so
    ``observe(0.1)`` with a ``0.1`` bound increments the ``le="0.1"``
    sample.  ``tests/obs/test_metrics.py`` pins this down.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> None:
        self.name = _check_name(name)
        self.help = help
        self.buckets = _check_buckets(buckets)
        self.counts = [0] * len(self.buckets)  # per-bucket (non-cumulative)
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        self.count += 1
        self.sum += value
        # bisect_left gives the first bound >= value, i.e. the smallest
        # bucket whose `le` covers it — boundary values inclusive.
        index = bisect.bisect_left(self.buckets, value)
        if index < len(self.counts):
            self.counts[index] += 1

    def bucket_samples(
        self, labels: str = ""
    ) -> Iterable[tuple[str, float]]:
        """The exposition samples, with optional extra label text."""
        prefix = f"{labels}," if labels else ""
        cumulative = 0
        for bound, count in zip(self.buckets, self.counts):
            cumulative += count
            yield (
                f'{self.name}_bucket{{{prefix}le="{_format_value(bound)}"}}',
                cumulative,
            )
        yield f'{self.name}_bucket{{{prefix}le="+Inf"}}', self.count
        if labels:
            yield f"{self.name}_sum{{{labels}}}", self.sum
            yield f"{self.name}_count{{{labels}}}", self.count
        else:
            yield f"{self.name}_sum", self.sum
            yield f"{self.name}_count", self.count

    def samples(self) -> Iterable[tuple[str, float]]:
        yield from self.bucket_samples()


class CounterFamily:
    """One counter per label value (e.g. chaos injections per point).

    Children share the family's name; rendering attaches the label the
    way a Prometheus client library would::

        repro_chaos_injected_total{point="worker-kill"} 3
    """

    kind = "counter"

    def __init__(self, name: str, help: str, label: str) -> None:
        self.name = _check_name(name)
        self.help = help
        self.label = _check_name(label)
        self._children: dict[str, Counter] = {}

    def labels(self, value: str) -> Counter:
        """The child counter for one label value (created on demand)."""
        value = str(value)
        child = self._children.get(value)
        if child is None:
            child = Counter(self.name, self.help)
            self._children[value] = child
        return child

    def inc(self, label_value: str, amount: float = 1.0) -> None:
        self.labels(label_value).inc(amount)

    def samples(self) -> Iterable[tuple[str, float]]:
        for label_value in sorted(self._children):
            escaped = label_value.replace("\\", "\\\\").replace('"', '\\"')
            child = self._children[label_value]
            yield (
                f'{self.name}{{{self.label}="{escaped}"}}',
                child.value,
            )


class HistogramFamily:
    """One histogram per label value (e.g. duration per artifact).

    Children share the family's name and buckets; rendering interleaves
    them with the label attached, the way a Prometheus client library
    would::

        repro_artifact_duration_seconds_bucket{artifact="figure4",le="1"} 3
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        label: str,
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> None:
        self.name = _check_name(name)
        self.help = help
        self.label = _check_name(label)
        self.buckets = _check_buckets(buckets)
        self._children: dict[str, Histogram] = {}

    def labels(self, value: str) -> Histogram:
        """The child histogram for one label value (created on demand)."""
        value = str(value)
        child = self._children.get(value)
        if child is None:
            child = Histogram(self.name, self.help, self.buckets)
            self._children[value] = child
        return child

    def observe(self, value: float, label_value: str) -> None:
        self.labels(label_value).observe(value)

    def samples(self) -> Iterable[tuple[str, float]]:
        for label_value in sorted(self._children):
            escaped = label_value.replace("\\", "\\\\").replace('"', '\\"')
            labels = f'{self.label}="{escaped}"'
            yield from self._children[label_value].bucket_samples(labels)


Instrument = "Counter | Gauge | Histogram | HistogramFamily"

#: Every unified registry currently alive.  Producers that push
#: observations (rather than being polled by fn-gauges) broadcast via
#: :func:`observe_family`, so a service registry and the process-wide
#: default registry both see them without knowing about each other.
_live_registries: "weakref.WeakSet" = weakref.WeakSet()


def observe_family(name: str, label_value: str, value: float) -> None:
    """Observe into the named histogram family of every live registry.

    A no-op when no unified registry exists (or none carries the
    instrument) — producers never pay for metrics nobody is scraping.
    """
    for registry in list(_live_registries):
        instrument = registry.get(name)
        if isinstance(instrument, HistogramFamily):
            instrument.observe(value, label_value)


def inc_counter(name: str, amount: float = 1.0) -> None:
    """Increment the named counter in every live registry (push-style)."""
    for registry in list(_live_registries):
        instrument = registry.get(name)
        if isinstance(instrument, Counter):
            instrument.inc(amount)


def inc_family(name: str, label_value: str, amount: float = 1.0) -> None:
    """Increment one child of the named counter family, everywhere."""
    for registry in list(_live_registries):
        instrument = registry.get(name)
        if isinstance(instrument, CounterFamily):
            instrument.inc(label_value, amount)


class MetricsRegistry:
    """A named set of instruments with a text exposition."""

    def __init__(self) -> None:
        self._instruments: dict[str, Counter | Gauge | Histogram | HistogramFamily] = {}

    def _register(self, instrument):
        if instrument.name in self._instruments:
            raise ValueError(f"metric {instrument.name!r} already registered")
        self._instruments[instrument.name] = instrument
        return instrument

    def counter(self, name: str, help: str) -> Counter:
        return self._register(Counter(name, help))

    def counter_family(self, name: str, help: str, label: str) -> CounterFamily:
        return self._register(CounterFamily(name, help, label))

    def gauge(
        self, name: str, help: str, fn: Callable[[], float] | None = None
    ) -> Gauge:
        return self._register(Gauge(name, help, fn))

    def histogram(
        self, name: str, help: str, buckets: tuple[float, ...] = DEFAULT_BUCKETS
    ) -> Histogram:
        return self._register(Histogram(name, help, buckets))

    def histogram_family(
        self,
        name: str,
        help: str,
        label: str,
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> HistogramFamily:
        return self._register(HistogramFamily(name, help, label, buckets))

    def get(self, name: str):
        return self._instruments.get(name)

    def render(self) -> str:
        """Prometheus text exposition of every registered instrument."""
        lines: list[str] = []
        for instrument in self._instruments.values():
            lines.append(f"# HELP {instrument.name} {instrument.help}")
            lines.append(f"# TYPE {instrument.name} {instrument.kind}")
            for sample_name, value in instrument.samples():
                lines.append(f"{sample_name} {_format_value(value)}")
        return "\n".join(lines) + "\n"


def build_unified_registry(
    queue_depth: Callable[[], int] | None = None,
    running: Callable[[], int] | None = None,
) -> MetricsRegistry:
    """The whole stack's instrument set in one registry.

    Service counters and queue gauges, executor/cache accounting read
    live from the :mod:`repro.exec` engine (so warm-up work that
    predates a service is visible too), and per-artifact duration
    histograms.  The service's ``metrics`` request renders a registry
    built here.
    """
    from repro.exec.cache import default_cache

    registry = MetricsRegistry()
    registry.counter(
        "repro_requests_total", "Protocol requests handled, any op."
    )
    registry.counter(
        "repro_request_errors_total", "Requests answered with an error."
    )
    registry.counter("repro_jobs_submitted_total", "Jobs admitted to the queue.")
    registry.counter(
        "repro_jobs_coalesced_total",
        "Submissions deduplicated onto an in-flight identical job.",
    )
    registry.counter("repro_jobs_completed_total", "Jobs finished successfully.")
    registry.counter("repro_jobs_failed_total", "Jobs that raised an error.")
    registry.counter("repro_jobs_cancelled_total", "Jobs cancelled while queued.")
    registry.counter(
        "repro_queue_rejected_total", "Submissions rejected by backpressure."
    )
    registry.counter(
        "repro_slow_job_warnings_total",
        "Running jobs flagged for exceeding the slow-job threshold.",
    )
    registry.counter_family(
        "repro_chaos_injected_total",
        "Faults fired by the chaos injector (label: point).",
        label="point",
    )
    registry.counter(
        "repro_cache_quarantined_total",
        "Corrupt disk-cache entries quarantined (renamed aside) on read.",
    )
    registry.counter(
        "repro_client_retries_total",
        "Service-client calls retried after a retryable failure.",
    )
    registry.gauge(
        "repro_queue_depth", "Jobs currently waiting in the queue.",
        fn=queue_depth,
    )
    registry.gauge(
        "repro_jobs_running", "Jobs currently executing.", fn=running
    )
    registry.histogram(
        "repro_job_duration_seconds", "Wall-clock job execution time."
    )
    registry.histogram(
        "repro_queue_wait_seconds", "Time from admission to execution start."
    )
    registry.histogram_family(
        "repro_artifact_duration_seconds",
        "Wall-clock execution time per artifact (label: artifact).",
        label="artifact",
    )

    def _stat(name: str) -> Callable[[], float]:
        def read() -> float:
            cache = default_cache()
            return float(getattr(cache.stats, name)) if cache else 0.0
        return read

    def _hit_rate() -> float:
        cache = default_cache()
        if cache is None or not cache.stats.lookups:
            return 0.0
        return cache.stats.hits / cache.stats.lookups

    registry.gauge(
        "repro_cache_hits", "Result-cache hits (memory or disk).",
        fn=_stat("hits"),
    )
    registry.gauge(
        "repro_cache_misses", "Result-cache misses.", fn=_stat("misses")
    )
    registry.gauge(
        "repro_cache_disk_hits", "Result-cache hits served from disk.",
        fn=_stat("disk_hits"),
    )
    registry.gauge(
        "repro_cache_stores", "Results written to the cache.",
        fn=_stat("stores"),
    )
    registry.gauge(
        "repro_cache_hit_rate", "hits / lookups of the result cache (0..1).",
        fn=_hit_rate,
    )

    def _executor_stat(name: str) -> Callable[[], float]:
        def read() -> float:
            from repro.exec.executor import GLOBAL_STATS

            return float(getattr(GLOBAL_STATS, name))
        return read

    registry.gauge(
        "repro_executor_jobs",
        "Jobs mapped through any executor in this process.",
        fn=_executor_stat("jobs"),
    )
    registry.gauge(
        "repro_executor_cache_hits",
        "Executor jobs answered from the result cache.",
        fn=_executor_stat("cache_hits"),
    )
    registry.gauge(
        "repro_executor_executed",
        "Executor jobs that actually ran.",
        fn=_executor_stat("executed"),
    )
    registry.gauge(
        "repro_executor_batches",
        "Dispatch units (backend batches) executors issued.",
        fn=_executor_stat("batches"),
    )
    registry.gauge(
        "repro_executor_snapshot_hits",
        "Machine boots answered by a snapshot store during execution, "
        "including hits inside worker processes.",
        fn=_executor_stat("snapshot_hits"),
    )

    def _backend_stat(name: str) -> Callable[[], float]:
        def read() -> float:
            from repro.backend.base import GLOBAL_STATS

            return float(getattr(GLOBAL_STATS, name))
        return read

    registry.gauge(
        "repro_backend_jobs",
        "Jobs dispatched through any execution backend in this process.",
        fn=_backend_stat("jobs"),
    )
    registry.gauge(
        "repro_backend_batches",
        "Batches execution backends dispatched.",
        fn=_backend_stat("batches"),
    )
    registry.gauge(
        "repro_backend_snapshot_hits",
        "Machine boots absorbed by snapshot stores while executing "
        "backend batches (including inside worker processes).",
        fn=_backend_stat("snapshot_hits"),
    )
    registry.gauge(
        "repro_backend_workers_spawned",
        "Worker processes spawned by execution backends.",
        fn=_backend_stat("workers_spawned"),
    )
    registry.gauge(
        "repro_backend_worker_restarts",
        "Workers that died mid-run and were respawned (their in-flight "
        "batches re-dispatched, results unchanged).",
        fn=_backend_stat("worker_restarts"),
    )
    registry.gauge(
        "repro_backend_stall_revivals",
        "Workers revived by the deadline watchdog after exceeding the "
        "per-job deadline with a batch in flight.",
        fn=_backend_stat("stall_revivals"),
    )
    registry.gauge(
        "repro_backend_frames_sent",
        "Binary frames the warm backend's coordinator wrote to workers.",
        fn=_backend_stat("frames_sent"),
    )
    registry.gauge(
        "repro_backend_frames_received",
        "Binary frames the warm backend's coordinator read from workers.",
        fn=_backend_stat("frames_received"),
    )
    registry.gauge(
        "repro_backend_frame_bytes_sent",
        "Total bytes of coordinator-to-worker frames.",
        fn=_backend_stat("frame_bytes_sent"),
    )
    registry.gauge(
        "repro_backend_frame_bytes_received",
        "Total bytes of worker-to-coordinator frames.",
        fn=_backend_stat("frame_bytes_received"),
    )
    registry.histogram_family(
        "repro_backend_frame_bytes",
        "Size of one warm-backend frame (label: direction).",
        label="direction",
        buckets=(64.0, 512.0, 4096.0, 32768.0, 262144.0, 2097152.0,
                 16777216.0),
    )
    registry.histogram_family(
        "repro_backend_worker_snapshot_hits",
        "Snapshot hits one warm worker reported per batch (label: worker).",
        label="worker",
        buckets=(0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0),
    )

    def _snapshot_stat(name: str) -> Callable[[], float]:
        def read() -> float:
            from repro.kernel.snapshot import GLOBAL_STATS

            return float(getattr(GLOBAL_STATS, name))
        return read

    registry.gauge(
        "repro_snapshot_hits",
        "Boot-image lookups answered by a snapshot store (this process).",
        fn=_snapshot_stat("hits"),
    )
    registry.gauge(
        "repro_snapshot_misses",
        "Boot-image lookups that captured a fresh image (this process).",
        fn=_snapshot_stat("misses"),
    )
    registry.gauge(
        "repro_snapshot_evictions",
        "Boot images dropped by snapshot-store LRU bounds (this process).",
        fn=_snapshot_stat("evictions"),
    )
    _live_registries.add(registry)
    return registry

