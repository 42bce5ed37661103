"""The metrics layer and its Prometheus text exposition."""

import pytest

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    build_unified_registry,
)


class TestInstruments:
    def test_counter_monotonic(self):
        counter = Counter("jobs_total", "Jobs.")
        counter.inc()
        counter.inc(2)
        assert counter.value == 3
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_gauge_set_and_callback(self):
        gauge = Gauge("depth", "Depth.")
        gauge.set(7)
        assert dict(gauge.samples()) == {"depth": 7}
        live = Gauge("live", "Live.", fn=lambda: 42)
        assert dict(live.samples()) == {"live": 42.0}

    def test_histogram_cumulative_buckets(self):
        hist = Histogram("latency", "Latency.", buckets=(0.1, 1.0, 10.0))
        for value in (0.05, 0.5, 0.5, 5.0, 50.0):
            hist.observe(value)
        samples = dict(hist.samples())
        assert samples['latency_bucket{le="0.1"}'] == 1
        assert samples['latency_bucket{le="1"}'] == 3
        assert samples['latency_bucket{le="10"}'] == 4
        assert samples['latency_bucket{le="+Inf"}'] == 5
        assert samples["latency_count"] == 5
        assert samples["latency_sum"] == pytest.approx(56.05)

    def test_invalid_names_rejected(self):
        with pytest.raises(ValueError):
            Counter("has space", "x")
        with pytest.raises(ValueError):
            Counter("1starts_with_digit", "x")


class TestRegistry:
    def test_render_format(self):
        registry = MetricsRegistry()
        registry.counter("repro_jobs_total", "All jobs.").inc(3)
        registry.gauge("repro_depth", "Queue depth.").set(2)
        text = registry.render()
        assert "# HELP repro_jobs_total All jobs.\n" in text
        assert "# TYPE repro_jobs_total counter\n" in text
        assert "\nrepro_jobs_total 3\n" in text
        assert "# TYPE repro_depth gauge\n" in text
        assert text.endswith("\n")

    def test_duplicate_names_rejected(self):
        registry = MetricsRegistry()
        registry.counter("twice", "x")
        with pytest.raises(ValueError):
            registry.gauge("twice", "y")

    def test_service_registry_has_the_contract_metrics(self):
        registry = build_unified_registry(
            queue_depth=lambda: 4, running=lambda: 1
        )
        text = registry.render()
        for name in (
            "repro_jobs_submitted_total",
            "repro_jobs_coalesced_total",
            "repro_jobs_completed_total",
            "repro_jobs_failed_total",
            "repro_queue_rejected_total",
            "repro_queue_depth",
            "repro_jobs_running",
            "repro_job_duration_seconds",
            "repro_cache_hit_rate",
        ):
            assert f"# TYPE {name} " in text
        assert "repro_queue_depth 4" in text
        assert "repro_jobs_running 1" in text
