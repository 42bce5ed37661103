"""The wire protocol: versioned requests/responses over JSON lines.

One request or response per line, UTF-8 JSON, ``\n``-terminated.  Every
message carries ``"v"`` (the protocol version); the server answers
newer-versioned requests with an ``unsupported-version`` error instead
of guessing, so old servers fail loudly rather than subtly when
clients move ahead.

Requests are frozen dataclasses — one per operation — with a
``from_wire`` constructor that validates field types and raises
:class:`ProtocolError` (never an assertion or a KeyError) on malformed
input.  Responses are a single :class:`Response` shape: ``ok`` plus a
payload on success, ``ok: false`` plus a structured error (code,
message, optional ``retry_after`` seconds) on failure.

The protocol is deliberately poll-based (submit returns a job id;
status/result are separate requests): it keeps the server stateless
per connection, so clients may drop the socket between submit and
poll, and a load balancer may route each request anywhere that shares
the job store.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Callable, ClassVar, Mapping

#: Bump on any incompatible wire change; mismatches are rejected.
PROTOCOL_VERSION = 1

#: Priorities are small ints; 0 is most urgent, 9 least.
MIN_PRIORITY, MAX_PRIORITY, DEFAULT_PRIORITY = 0, 9, 5

# -- error codes (the closed vocabulary clients may dispatch on) ----------

E_BAD_REQUEST = "bad-request"
E_UNSUPPORTED_VERSION = "unsupported-version"
E_UNKNOWN_OP = "unknown-op"
E_UNKNOWN_JOB = "unknown-job"
E_UNKNOWN_ARTIFACT = "unknown-artifact"
E_QUEUE_FULL = "queue-full"
E_SHUTTING_DOWN = "shutting-down"
E_TIMEOUT = "timeout"
E_CONFLICT = "conflict"
E_INTERNAL = "internal"

ERROR_CODES = frozenset({
    E_BAD_REQUEST, E_UNSUPPORTED_VERSION, E_UNKNOWN_OP, E_UNKNOWN_JOB,
    E_UNKNOWN_ARTIFACT, E_QUEUE_FULL, E_SHUTTING_DOWN, E_TIMEOUT,
    E_CONFLICT, E_INTERNAL,
})


class ProtocolError(Exception):
    """A request the server must answer with a structured error."""

    def __init__(
        self, code: str, message: str, retry_after: float | None = None
    ) -> None:
        super().__init__(message)
        self.code = code
        self.message = message
        self.retry_after = retry_after


# -- field validation helpers ---------------------------------------------

def _bad(message: str) -> ProtocolError:
    return ProtocolError(E_BAD_REQUEST, message)


def _get_str(data: Mapping[str, Any], key: str, default: str | None = None) -> Any:
    value = data.get(key, default)
    if value is not None and not isinstance(value, str):
        raise _bad(f"field {key!r} must be a string, got {type(value).__name__}")
    return value


def _get_int(data: Mapping[str, Any], key: str, default: int | None = None) -> Any:
    value = data.get(key, default)
    if value is not None and (isinstance(value, bool) or not isinstance(value, int)):
        raise _bad(f"field {key!r} must be an integer, got {value!r}")
    return value


def _require(value: Any, key: str) -> Any:
    if value is None:
        raise _bad(f"missing required field {key!r}")
    return value


# -- requests --------------------------------------------------------------

@dataclass(frozen=True)
class Request:
    """Base of every operation; ``op`` names the handler."""

    op: ClassVar[str] = ""
    #: Client identity used for queue fairness (free-form, per caller).
    client: str = "anon"

    def to_wire(self) -> dict[str, Any]:
        wire: dict[str, Any] = {"v": PROTOCOL_VERSION, "op": self.op}
        if self.client != "anon":
            wire["client"] = self.client
        return wire


#: ``trace_id`` values are free-form but bounded; ids minted by
#: :func:`repro.obs.new_trace_id` are 32 hex chars.
MAX_TRACE_ID_LENGTH = 128


@dataclass(frozen=True)
class SubmitRequest(Request):
    """Submit work: a named paper artifact or a declarative plan.

    ``kind="artifact"`` runs a registered experiment (``artifact`` id,
    optional ``repeats``/``seed``); ``kind="plan"`` runs a JSON-described
    :class:`~repro.exec.plan.MeasurementPlan` (``plan`` holds a
    ``{"jobs": [{"config": {...}, "benchmark": {...}, "tags": {...}}]}``
    mapping — see :func:`repro.service.scheduler.plan_job`).

    ``trace_id`` is an optional distributed-tracing passthrough: the
    server threads it through the job's queue-wait, scheduler,
    executor and measurement spans (:mod:`repro.obs`), so a client can
    correlate its own telemetry with the served execution.  The field
    is additive — absent on the wire when unset, ignored by older
    servers — so the protocol version is unchanged.
    """

    op: ClassVar[str] = "submit"
    kind: str = "artifact"
    artifact: str | None = None
    repeats: int | None = None
    seed: int = 0
    plan: Mapping[str, Any] | None = None
    priority: int = DEFAULT_PRIORITY
    trace_id: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("artifact", "plan"):
            raise _bad(f"kind must be 'artifact' or 'plan', got {self.kind!r}")
        if self.kind == "artifact" and not self.artifact:
            raise _bad("kind 'artifact' requires field 'artifact'")
        if self.kind == "plan" and not isinstance(self.plan, Mapping):
            raise _bad("kind 'plan' requires a mapping field 'plan'")
        if not (MIN_PRIORITY <= self.priority <= MAX_PRIORITY):
            raise _bad(
                f"priority must be in [{MIN_PRIORITY}, {MAX_PRIORITY}], "
                f"got {self.priority}"
            )
        if self.repeats is not None and self.repeats < 1:
            raise _bad(f"repeats must be >= 1, got {self.repeats}")
        if self.trace_id is not None and (
            not self.trace_id or len(self.trace_id) > MAX_TRACE_ID_LENGTH
        ):
            raise _bad(
                f"trace_id must be 1..{MAX_TRACE_ID_LENGTH} characters"
            )

    @classmethod
    def from_wire(cls, data: Mapping[str, Any]) -> "SubmitRequest":
        plan = data.get("plan")
        if plan is not None and not isinstance(plan, Mapping):
            raise _bad("field 'plan' must be a mapping")
        return cls(
            client=_get_str(data, "client", "anon"),
            kind=_get_str(data, "kind", "artifact"),
            artifact=_get_str(data, "artifact"),
            repeats=_get_int(data, "repeats"),
            seed=_get_int(data, "seed", 0),
            plan=plan,
            priority=_get_int(data, "priority", DEFAULT_PRIORITY),
            trace_id=_get_str(data, "trace_id"),
        )

    def to_wire(self) -> dict[str, Any]:
        wire = super().to_wire()
        wire["kind"] = self.kind
        if self.artifact is not None:
            wire["artifact"] = self.artifact
        if self.repeats is not None:
            wire["repeats"] = self.repeats
        if self.seed:
            wire["seed"] = self.seed
        if self.plan is not None:
            wire["plan"] = dict(self.plan)
        if self.priority != DEFAULT_PRIORITY:
            wire["priority"] = self.priority
        if self.trace_id is not None:
            wire["trace_id"] = self.trace_id
        return wire


@dataclass(frozen=True)
class _JobRequest(Request):
    """Shared shape of the per-job operations."""

    job_id: str = ""

    def __post_init__(self) -> None:
        if not self.job_id:
            raise _bad(f"op {self.op!r} requires field 'job'")

    @classmethod
    def from_wire(cls, data: Mapping[str, Any]) -> "_JobRequest":
        return cls(
            client=_get_str(data, "client", "anon"),
            job_id=_require(_get_str(data, "job"), "job"),
        )

    def to_wire(self) -> dict[str, Any]:
        wire = super().to_wire()
        wire["job"] = self.job_id
        return wire


@dataclass(frozen=True)
class StatusRequest(_JobRequest):
    """Poll one job's state (cheap; result stays server-side)."""

    op: ClassVar[str] = "status"


@dataclass(frozen=True)
class ResultRequest(_JobRequest):
    """Fetch a finished job's payload."""

    op: ClassVar[str] = "result"


@dataclass(frozen=True)
class CancelRequest(_JobRequest):
    """Cancel a queued job (running jobs are not interrupted)."""

    op: ClassVar[str] = "cancel"


@dataclass(frozen=True)
class HealthRequest(Request):
    """Liveness plus a summary of queue/scheduler state."""

    op: ClassVar[str] = "health"

    @classmethod
    def from_wire(cls, data: Mapping[str, Any]) -> "HealthRequest":
        return cls(client=_get_str(data, "client", "anon"))


@dataclass(frozen=True)
class MetricsRequest(Request):
    """Prometheus-style text metrics."""

    op: ClassVar[str] = "metrics"

    @classmethod
    def from_wire(cls, data: Mapping[str, Any]) -> "MetricsRequest":
        return cls(client=_get_str(data, "client", "anon"))


@dataclass(frozen=True)
class ListRequest(Request):
    """Enumerate runnable artifacts (ids + descriptions)."""

    op: ClassVar[str] = "list"

    @classmethod
    def from_wire(cls, data: Mapping[str, Any]) -> "ListRequest":
        return cls(client=_get_str(data, "client", "anon"))


REQUEST_TYPES: dict[str, Callable[[Mapping[str, Any]], Request]] = {
    cls.op: cls.from_wire  # type: ignore[attr-defined]
    for cls in (
        SubmitRequest, StatusRequest, ResultRequest, CancelRequest,
        HealthRequest, MetricsRequest, ListRequest,
    )
}


# -- responses -------------------------------------------------------------

@dataclass(frozen=True)
class Response:
    """One answer per request: a payload, or a structured error."""

    ok: bool
    op: str
    payload: Mapping[str, Any] = field(default_factory=dict)
    error: Mapping[str, Any] | None = None

    @classmethod
    def success(cls, op: str, **payload: Any) -> "Response":
        return cls(ok=True, op=op, payload=payload)

    @classmethod
    def failure(
        cls,
        op: str,
        code: str,
        message: str,
        retry_after: float | None = None,
    ) -> "Response":
        error: dict[str, Any] = {"code": code, "message": message}
        if retry_after is not None:
            error["retry_after"] = retry_after
        return cls(ok=False, op=op, error=error)

    def to_wire(self) -> dict[str, Any]:
        wire: dict[str, Any] = {"v": PROTOCOL_VERSION, "ok": self.ok, "op": self.op}
        if self.ok:
            wire.update(self.payload)
        else:
            wire["error"] = dict(self.error or {})
        return wire

    @classmethod
    def from_wire(cls, data: Mapping[str, Any]) -> "Response":
        if not isinstance(data.get("ok"), bool):
            raise _bad("response is missing boolean field 'ok'")
        op = _get_str(data, "op", "") or ""
        if data["ok"]:
            payload = {
                k: v for k, v in data.items() if k not in ("v", "ok", "op")
            }
            return cls(ok=True, op=op, payload=payload)
        error = data.get("error")
        if not isinstance(error, Mapping):
            raise _bad("error response is missing mapping field 'error'")
        return cls(ok=False, op=op, error=dict(error))


# -- line codec ------------------------------------------------------------

def encode_line(message: "Request | Response | Mapping[str, Any]") -> bytes:
    """One wire line for a message (compact JSON, newline-terminated)."""
    wire = message.to_wire() if hasattr(message, "to_wire") else dict(message)
    return json.dumps(wire, separators=(",", ":"), sort_keys=True).encode() + b"\n"


def decode_line(line: "bytes | str") -> dict[str, Any]:
    """The JSON object on a wire line, or :class:`ProtocolError`."""
    if isinstance(line, bytes):
        try:
            line = line.decode("utf-8")
        except UnicodeDecodeError:
            raise _bad("request is not valid UTF-8") from None
    try:
        data = json.loads(line)
    except json.JSONDecodeError as exc:
        raise _bad(f"request is not valid JSON: {exc.msg}") from None
    if not isinstance(data, dict):
        raise _bad(f"request must be a JSON object, got {type(data).__name__}")
    return data


def check_version(data: Mapping[str, Any]) -> None:
    """Reject messages from a protocol this build does not speak."""
    version = data.get("v")
    if isinstance(version, bool) or not isinstance(version, int):
        raise _bad("field 'v' (protocol version) must be an integer")
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            E_UNSUPPORTED_VERSION,
            f"protocol version {version} is not supported "
            f"(this server speaks {PROTOCOL_VERSION})",
        )


def parse_request(line: "bytes | str") -> Request:
    """Decode + version-check + validate one request line."""
    data = decode_line(line)
    check_version(data)
    op = data.get("op")
    if not isinstance(op, str) or not op:
        raise _bad("request is missing string field 'op'")
    build = REQUEST_TYPES.get(op)
    if build is None:
        known = ", ".join(sorted(REQUEST_TYPES))
        raise ProtocolError(E_UNKNOWN_OP, f"unknown op {op!r}; known: {known}")
    return build(data)


def parse_response(line: "bytes | str") -> Response:
    """Decode + version-check one response line (the client side)."""
    data = decode_line(line)
    check_version(data)
    return Response.from_wire(data)
