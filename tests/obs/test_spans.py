"""Span API: ambient activation, nesting, carriers, bounds."""

import pickle

from repro import obs
from repro.obs.spans import (
    SPAN_COUNTS,
    Span,
    Timebase,
    TraceCollector,
    TraceContext,
    new_span_id,
    new_trace_id,
)


class TestIdentifiers:
    def test_trace_and_span_id_shapes(self):
        trace_id, span_id = new_trace_id(), new_span_id()
        assert len(trace_id) == 32 and int(trace_id, 16) >= 0
        assert len(span_id) == 16 and int(span_id, 16) >= 0
        assert new_trace_id() != trace_id

    def test_mint_respects_given_trace_id(self):
        context = TraceContext.mint("a" * 32)
        assert context.trace_id == "a" * 32
        assert len(context.span_id) == 16

    def test_context_wire_roundtrip(self):
        context = TraceContext.mint()
        assert TraceContext.from_wire(context.to_wire()) == context


class TestNoop:
    def test_span_without_collector_is_noop(self):
        handle = obs.span("anything", category="cli", k=1)
        with handle as sp:
            assert sp.set(more=2) is sp  # chainable, stateless
        assert obs.current_collector() is None

    def test_carrier_without_collector_is_none(self):
        assert obs.carrier() is None


class TestNesting:
    def test_parent_child_links_and_categories(self):
        collector = TraceCollector()
        with obs.activate(collector):
            with obs.span("outer", category="cli") as outer:
                with obs.span("inner", category="executor") as inner:
                    pass
        spans = {s.name: s for s in collector.spans}
        assert spans["inner"].parent_id == spans["outer"].span_id
        assert spans["inner"].trace_id == spans["outer"].trace_id
        assert spans["outer"].parent_id is None
        assert spans["inner"].category == "executor"
        # inner finished first, and both have sane timing
        assert spans["inner"].start_us >= spans["outer"].start_us
        assert spans["inner"].end_us <= spans["outer"].end_us

    def test_explicit_context_roots_the_tree(self):
        collector = TraceCollector()
        root = TraceContext.mint("b" * 32)
        with obs.activate(collector, context=root):
            with obs.span("child", category="queue"):
                pass
        (span,) = collector.spans
        assert span.trace_id == "b" * 32
        assert span.parent_id == root.span_id

    def test_exception_recorded_and_span_finished(self):
        collector = TraceCollector()
        try:
            with obs.activate(collector):
                with obs.span("boom", category="cli"):
                    raise ValueError("nope")
        except ValueError:
            pass
        (span,) = collector.spans
        assert span.attributes["error"] == "ValueError"
        assert span.end_us is not None

    def test_attributes_set_mid_span(self):
        collector = TraceCollector()
        with obs.activate(collector):
            with obs.span("work", category="cli", a=1) as sp:
                sp.set(b=2)
        (span,) = collector.spans
        assert span.attributes == {"a": 1, "b": 2}


class TestCollector:
    def test_bounded_with_drop_accounting(self):
        collector = TraceCollector(max_spans=2)
        dropped_before = SPAN_COUNTS["dropped"]
        with obs.activate(collector):
            for i in range(4):
                with obs.span(f"s{i}", category="cli"):
                    pass
        assert len(collector) == 2
        assert collector.dropped == 2
        assert collector.started == 4
        assert SPAN_COUNTS["dropped"] == dropped_before + 2

    def test_add_span_retroactive(self):
        collector = TraceCollector()
        parent = TraceContext.mint()
        span = collector.add_span(
            "queue-wait", "queue", 100, 250, parent=parent,
            attributes={"job": "j1"},
        )
        assert span.trace_id == parent.trace_id
        assert span.parent_id == parent.span_id
        assert span.duration_us == 150
        assert collector.spans[0].attributes == {"job": "j1"}

    def test_wire_absorb_roundtrip_preserves_ids(self):
        source = TraceCollector()
        with obs.activate(source):
            with obs.span("a", category="executor"):
                with obs.span("b", category="measurement"):
                    pass
        sink = TraceCollector()
        sink.absorb(source.wire())
        assert {s.span_id for s in sink.spans} == {
            s.span_id for s in source.spans
        }
        assert sink.spans[0].attributes == source.spans[0].attributes


class TestCarrier:
    def test_carrier_is_picklable_and_rebuilds_state(self):
        collector = TraceCollector(timebase=Timebase(epoch=1000.0))
        with obs.activate(collector, retirements=True):
            with obs.span("parent", category="executor") as parent:
                capsule = pickle.loads(pickle.dumps(obs.carrier()))
        rebuilt, context, retirements = obs.collector_from_carrier(capsule)
        assert rebuilt.timebase.epoch == 1000.0
        assert context == parent.context
        assert retirements is True

    def test_worker_spans_parent_across_the_boundary(self):
        # Simulates what the warm backend does: carrier out, spans back.
        coordinator = TraceCollector()
        with obs.activate(coordinator):
            with obs.span("executor.map", category="executor") as outer:
                capsule = obs.carrier()
        worker, context, _ = obs.collector_from_carrier(capsule)
        with obs.activate(worker, context=context):
            with obs.span("job", category="executor"):
                pass
        coordinator.absorb(worker.wire())
        by_name = {s.name: s for s in coordinator.spans}
        assert by_name["job"].parent_id == outer.span_id
        assert by_name["job"].trace_id == by_name["executor.map"].trace_id


class TestSpanWire:
    def test_span_wire_roundtrip(self):
        span = Span(
            name="n", category="c", trace_id="t" * 32, span_id="s" * 16,
            parent_id=None, start_us=1, end_us=5, attributes={"k": "v"},
        )
        clone = Span.from_wire(span.to_wire())
        assert clone.to_wire() == span.to_wire()
        assert clone.duration_us == 4
