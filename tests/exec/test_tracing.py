"""Trace propagation through the executor, including the worker boundary.

The key claims: span identity survives pickling into worker processes
(parent/child links reconnect in the coordinator), and tracing is a
pure observer — results are byte-identical with it on or off.
"""

from repro import obs
from repro.core.config import Mode, Pattern
from repro.core.sweep import SweepSpec
from repro.exec import Executor
from repro.obs.spans import TraceCollector


def small_plan(base_seed=0):
    return SweepSpec(
        processors=("CD",),
        infras=("pm", "pc"),
        patterns=(Pattern.START_READ, Pattern.READ_READ),
        modes=(Mode.USER, Mode.USER_KERNEL),
        repeats=2,
        base_seed=base_seed,
        io_interrupts=False,
    ).plan()


def traced_run(executor, plan):
    collector = TraceCollector()
    with obs.activate(collector):
        table = executor.run(plan)
    return table, collector


class TestSerialTracing:
    def test_one_span_per_job_under_the_map_span(self):
        plan = small_plan()
        _, collector = traced_run(Executor(cache=None), plan)
        by_name: dict = {}
        for span in collector.spans:
            by_name.setdefault(span.name, []).append(span)
        (map_span,) = by_name["executor.map"]
        (dispatch_span,) = by_name["executor.dispatch"]
        assert dispatch_span.parent_id == map_span.span_id
        assert len(by_name["job"]) == len(plan)
        assert all(
            s.parent_id == dispatch_span.span_id for s in by_name["job"]
        )
        assert map_span.attributes["executed"] == len(plan)
        assert map_span.attributes["cache_hits"] == 0

    def test_measurement_spans_nest_inside_job_spans(self):
        plan = small_plan(base_seed=1)
        _, collector = traced_run(Executor(cache=None), plan)
        jobs = {s.span_id for s in collector.spans if s.name == "job"}
        measures = [s for s in collector.spans if s.name == "measure"]
        assert len(measures) == len(plan)
        assert all(s.parent_id in jobs for s in measures)
        assert all(s.category == "measurement" for s in measures)

    def test_job_spans_carry_plan_indices(self):
        plan = small_plan(base_seed=2)
        _, collector = traced_run(Executor(cache=None), plan)
        indices = sorted(
            s.attributes["index"] for s in collector.spans
            if s.name == "job"
        )
        assert indices == list(range(len(plan)))


class TestParallelTracing:
    def test_span_ids_survive_the_process_pool(self, warm):
        plan = small_plan(base_seed=3)
        _, collector = traced_run(Executor(warm, cache=None), plan)
        by_name: dict = {}
        for span in collector.spans:
            by_name.setdefault(span.name, []).append(span)
        (map_span,) = by_name["executor.map"]
        (dispatch_span,) = by_name["executor.dispatch"]
        assert dispatch_span.parent_id == map_span.span_id
        job_spans = by_name["job"]
        assert len(job_spans) == len(plan)
        # Worker spans reconnect to the coordinator's dispatch span and
        # share one trace, even though they crossed a pickle boundary.
        assert all(s.parent_id == dispatch_span.span_id for s in job_spans)
        assert all(s.trace_id == map_span.trace_id for s in job_spans)
        assert len({s.span_id for s in collector.spans}) == len(
            collector.spans
        )

    def test_parallel_and_serial_traces_have_the_same_shape(self, warm):
        plan = small_plan(base_seed=4)
        _, serial = traced_run(Executor(cache=None), plan)
        # Spawn the workers outside the trace: only the run is compared.
        Executor(warm, cache=None).run(small_plan(base_seed=8))
        _, parallel = traced_run(Executor(warm, cache=None), plan)

        def shape(collector):
            counts: dict = {}
            for span in collector.spans:
                key = (span.name, span.category)
                counts[key] = counts.get(key, 0) + 1
            return counts

        assert shape(serial) == shape(parallel)

    def test_results_identical_with_tracing_on_and_off(self, warm):
        plan = small_plan(base_seed=5)
        plain = Executor(warm, cache=None).run(plan)
        traced, _ = traced_run(Executor(warm, cache=None), plan)
        assert plain.to_csv() == traced.to_csv()

    def test_untraced_parallel_records_nothing(self, warm):
        plan = small_plan(base_seed=6)
        Executor(warm, cache=None).run(plan)
        assert obs.current_collector() is None


class TestCacheInteraction:
    def test_cache_hits_skip_job_spans(self):
        from repro.exec import ResultCache

        cache = ResultCache()
        plan = small_plan(base_seed=7)
        Executor(cache=cache).run(plan)  # warm, untraced
        _, collector = traced_run(Executor(cache=cache), plan)
        (map_span,) = [
            s for s in collector.spans if s.name == "executor.map"
        ]
        assert map_span.attributes["cache_hits"] == len(plan)
        assert map_span.attributes["executed"] == 0
        assert not [s for s in collector.spans if s.name == "job"]
