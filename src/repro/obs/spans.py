"""Spans and trace context: one trace from submission to retirement.

The paper attributes counter error to the layers of the measurement
infrastructure; this module does the same for the harness itself.  A
:class:`TraceCollector` gathers :class:`Span` records — named, timed
intervals tagged with a *category* (the layer: ``cli``, ``service``,
``queue``, ``scheduler``, ``executor``, ``measurement``) — all sharing
a ``trace_id`` minted where the work entered the system, so "where did
this figure's 40 s go?" has a structured answer.

Design points:

* **zero cost when off** — :func:`span` returns a no-op context
  manager unless a collector is :func:`activate`\\ d, so instrumented
  hot paths pay one contextvar read;
* **worker-process safe** — a :class:`TraceContext` plus the collector's
  :class:`Timebase` serialize into a :func:`carrier` dict; worker
  processes rebuild an ephemeral collector from it and ship their
  finished spans back as plain dicts (:meth:`TraceCollector.wire`),
  so parent/child links survive pickling;
* **thread safe** — the service scheduler finishes jobs on worker
  threads; the collector appends under a lock;
* **shared timebase** — every timestamp is microseconds since the
  collector's Unix epoch, so spans recorded by the CLI, the service
  and its worker processes render on one axis.

Span payloads (names, categories, attributes) must stay JSON-safe:
they feed the Chrome ``trace_event`` export and the structured log.
"""

from __future__ import annotations

import contextlib
import os
import threading
import time
import uuid
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Any, Iterator, Mapping

#: Process-wide span accounting (read by the unified metrics registry).
SPAN_COUNTS = {"started": 0, "dropped": 0}

_counts_lock = threading.Lock()


def new_trace_id() -> str:
    """A fresh 32-hex-char trace identifier."""
    return uuid.uuid4().hex


def new_span_id() -> str:
    """A fresh 16-hex-char span identifier."""
    return uuid.uuid4().hex[:16]


@dataclass(frozen=True)
class Timebase:
    """The clock every span in a trace shares.

    Timestamps are microseconds since ``epoch`` (a Unix time), read
    from the wall clock — the one clock that is meaningful across the
    worker-process boundary, where ``perf_counter`` offsets differ.
    """

    epoch: float

    @classmethod
    def now(cls) -> "Timebase":
        return cls(epoch=time.time())

    def now_us(self) -> int:
        """Microseconds since the epoch, right now."""
        return int(round((time.time() - self.epoch) * 1e6))


@dataclass(frozen=True)
class TraceContext:
    """The propagatable identity of a position in a trace."""

    trace_id: str
    span_id: str

    @classmethod
    def mint(cls, trace_id: str | None = None) -> "TraceContext":
        return cls(trace_id=trace_id or new_trace_id(), span_id=new_span_id())

    def to_wire(self) -> dict[str, str]:
        return {"trace_id": self.trace_id, "span_id": self.span_id}

    @classmethod
    def from_wire(cls, data: Mapping[str, Any]) -> "TraceContext":
        return cls(trace_id=str(data["trace_id"]), span_id=str(data["span_id"]))


@dataclass
class Span:
    """One named, timed interval in one layer of the stack."""

    name: str
    category: str
    trace_id: str
    span_id: str
    parent_id: str | None
    start_us: int
    end_us: int | None = None
    pid: int = field(default_factory=os.getpid)
    tid: int = field(default_factory=threading.get_native_id)
    attributes: dict[str, Any] = field(default_factory=dict)

    @property
    def context(self) -> TraceContext:
        return TraceContext(trace_id=self.trace_id, span_id=self.span_id)

    @property
    def duration_us(self) -> int:
        if self.end_us is None:
            return 0
        return max(0, self.end_us - self.start_us)

    def set(self, **attributes: Any) -> "Span":
        """Attach (JSON-safe) attributes; chainable."""
        self.attributes.update(attributes)
        return self

    def to_wire(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "cat": self.category,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_us": self.start_us,
            "end_us": self.end_us,
            "pid": self.pid,
            "tid": self.tid,
            "attributes": dict(self.attributes),
        }

    @classmethod
    def from_wire(cls, data: Mapping[str, Any]) -> "Span":
        return cls(
            name=data["name"],
            category=data["cat"],
            trace_id=data["trace_id"],
            span_id=data["span_id"],
            parent_id=data.get("parent_id"),
            start_us=data["start_us"],
            end_us=data.get("end_us"),
            pid=data.get("pid", 0),
            tid=data.get("tid", 0),
            attributes=dict(data.get("attributes") or {}),
        )


class TraceCollector:
    """Collects finished spans for one process (or one service).

    Bounded: past ``max_spans`` finished spans, further ones are
    dropped (and counted), so a runaway sweep cannot exhaust memory.
    """

    def __init__(
        self, timebase: Timebase | None = None, max_spans: int = 200_000
    ) -> None:
        self.timebase = timebase if timebase is not None else Timebase.now()
        self.max_spans = max_spans
        self.started = 0
        self.dropped = 0
        self._spans: list[Span] = []
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)

    @property
    def spans(self) -> list[Span]:
        """A snapshot of the finished spans."""
        with self._lock:
            return list(self._spans)

    def now_us(self) -> int:
        return self.timebase.now_us()

    # -- recording ---------------------------------------------------------

    def start_span(
        self,
        name: str,
        category: str = "app",
        parent: TraceContext | None = None,
        attributes: Mapping[str, Any] | None = None,
    ) -> Span:
        """An open span; finish it with :meth:`finish` (or use
        :func:`span`, which does both)."""
        if parent is None:
            context = TraceContext.mint()
        else:
            context = TraceContext.mint(parent.trace_id)
        with _counts_lock:
            SPAN_COUNTS["started"] += 1
        self.started += 1
        return Span(
            name=name,
            category=category,
            trace_id=context.trace_id,
            span_id=context.span_id,
            parent_id=parent.span_id if parent is not None else None,
            start_us=self.now_us(),
            attributes=dict(attributes or {}),
        )

    def finish(self, span: Span) -> None:
        """Close a span and keep it (subject to the bound)."""
        if span.end_us is None:
            span.end_us = self.now_us()
        with self._lock:
            if len(self._spans) >= self.max_spans:
                self.dropped += 1
                with _counts_lock:
                    SPAN_COUNTS["dropped"] += 1
                return
            self._spans.append(span)

    def add_span(
        self,
        name: str,
        category: str,
        start_us: int,
        end_us: int,
        parent: TraceContext | None = None,
        trace_id: str | None = None,
        attributes: Mapping[str, Any] | None = None,
    ) -> Span:
        """Record a span retroactively (e.g. queue wait, measured after
        the fact from stored timestamps)."""
        context = TraceContext.mint(
            trace_id or (parent.trace_id if parent else None)
        )
        with _counts_lock:
            SPAN_COUNTS["started"] += 1
        self.started += 1
        span = Span(
            name=name,
            category=category,
            trace_id=context.trace_id,
            span_id=context.span_id,
            parent_id=parent.span_id if parent is not None else None,
            start_us=start_us,
            end_us=end_us,
            attributes=dict(attributes or {}),
        )
        self.finish(span)
        return span

    # -- cross-process plumbing -------------------------------------------

    def wire(self) -> list[dict[str, Any]]:
        """Every finished span as plain dicts (picklable/JSON-safe)."""
        return [span.to_wire() for span in self.spans]

    def absorb(self, wires: "list[dict[str, Any]] | None") -> None:
        """Merge spans shipped back from a worker process."""
        for data in wires or ():
            self.finish(Span.from_wire(data))


# -- ambient state ---------------------------------------------------------

_collector: ContextVar[TraceCollector | None] = ContextVar(
    "repro_obs_collector", default=None
)
_context: ContextVar[TraceContext | None] = ContextVar(
    "repro_obs_context", default=None
)
_retirements: ContextVar[bool] = ContextVar(
    "repro_obs_retirements", default=False
)


def current_collector() -> TraceCollector | None:
    """The active collector, or None when tracing is off."""
    return _collector.get()


def current_context() -> TraceContext | None:
    """The context of the innermost open span, if any."""
    return _context.get()


def retirements_enabled() -> bool:
    """Whether measurement spans should attach retirement tracing."""
    return _retirements.get()


@contextlib.contextmanager
def activate(
    collector: TraceCollector,
    context: TraceContext | None = None,
    retirements: bool | None = None,
) -> Iterator[TraceCollector]:
    """Make ``collector`` the ambient collector for this context."""
    c_token = _collector.set(collector)
    x_token = _context.set(context) if context is not None else None
    r_token = _retirements.set(retirements) if retirements is not None else None
    try:
        yield collector
    finally:
        if r_token is not None:
            _retirements.reset(r_token)
        if x_token is not None:
            _context.reset(x_token)
        _collector.reset(c_token)


@contextlib.contextmanager
def enable_retirements() -> Iterator[None]:
    """Record per-retirement traces inside measurement spans."""
    token = _retirements.set(True)
    try:
        yield
    finally:
        _retirements.reset(token)


class _NoopSpan:
    """What instrumented code gets when tracing is off."""

    __slots__ = ()
    attributes: dict[str, Any] = {}

    def set(self, **attributes: Any) -> "_NoopSpan":
        return self

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        return None


_NOOP = _NoopSpan()


class _SpanHandle:
    """Context manager that opens a span on the ambient collector and
    publishes it as the ambient context while it is open."""

    __slots__ = ("_collector", "_span", "_token")

    def __init__(self, collector: TraceCollector, span: Span) -> None:
        self._collector = collector
        self._span = span
        self._token = None

    def __enter__(self) -> Span:
        self._token = _context.set(self._span.context)
        return self._span

    def __exit__(self, *exc_info: Any) -> None:
        if exc_info and exc_info[0] is not None:
            self._span.attributes.setdefault(
                "error", f"{exc_info[0].__name__}"
            )
        if self._token is not None:
            _context.reset(self._token)
        self._collector.finish(self._span)


def span(
    name: str,
    category: str = "app",
    parent: TraceContext | None = None,
    **attributes: Any,
) -> "_SpanHandle | _NoopSpan":
    """Open a span under the current context (or ``parent``).

    Usage::

        with obs.span("executor.map", category="executor") as sp:
            ...
            sp.set(jobs=len(jobs))

    A no-op unless a collector is active.
    """
    collector = _collector.get()
    if collector is None:
        return _NOOP
    if parent is None:
        parent = _context.get()
    opened = collector.start_span(
        name, category=category, parent=parent, attributes=attributes
    )
    return _SpanHandle(collector, opened)


# -- carriers (worker-process boundary) -----------------------------------

def carrier() -> dict[str, Any] | None:
    """A picklable capsule of the ambient tracing state, or None.

    Ship it to a worker process and rebuild with
    :func:`collector_from_carrier`; the worker's spans parent onto the
    carried context and share the carried timebase.
    """
    collector = _collector.get()
    if collector is None:
        return None
    context = _context.get()
    return {
        "epoch": collector.timebase.epoch,
        "context": context.to_wire() if context is not None else None,
        "retirements": _retirements.get(),
    }


def collector_from_carrier(
    data: Mapping[str, Any],
) -> tuple[TraceCollector, TraceContext | None, bool]:
    """(ephemeral collector, parent context, retirements flag)."""
    collector = TraceCollector(timebase=Timebase(epoch=float(data["epoch"])))
    context_wire = data.get("context")
    context = (
        TraceContext.from_wire(context_wire) if context_wire else None
    )
    return collector, context, bool(data.get("retirements", False))
