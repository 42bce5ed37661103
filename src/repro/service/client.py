"""A blocking client for the measurement service.

One socket, newline-delimited JSON both ways, strictly
request/response — the client the ``repro submit`` / ``repro status``
subcommands (and any external tool) build on.  Server-side errors
surface as :class:`ServiceError` carrying the structured code.

Transient failures are retried **by default** (``repro submit
--no-retry`` opts out): ``queue-full`` backpressure waits out the
server's ``retry_after`` hint, dropped connections and unreachable
servers back off exponentially (capped, with seeded jitter so a herd
of clients does not stampede in lockstep), and the budget is bounded —
``max_attempts`` tries, after which the client gives up with a
structured :class:`RetryBudgetExceeded` (or the original ``OSError``
when the server was never reachable at all, so "cannot reach service"
handling keeps working).  Permanent errors — bad request, conflict,
unknown artifact — are never retried.

The client reconnects transparently if the server dropped the
connection between calls (the protocol is stateless per connection,
so this is always safe).
"""

from __future__ import annotations

import random
import socket
import time
import uuid
from typing import Any, Mapping

from repro.obs.metrics import inc_counter
from repro.service import protocol
from repro.service.protocol import PROTOCOL_VERSION, Response
from repro.service.server import DEFAULT_HOST, DEFAULT_PORT


class ServiceError(Exception):
    """A structured error response from the server."""

    def __init__(
        self, code: str, message: str, retry_after: float | None = None
    ) -> None:
        super().__init__(f"{code}: {message}")
        self.code = code
        self.message = message
        self.retry_after = retry_after


class ServiceConnectionError(ServiceError):
    """The connection died mid-request (retryable: no response came)."""

    CODE = "connection-lost"

    def __init__(self, message: str) -> None:
        super().__init__(self.CODE, message)


class RetryBudgetExceeded(ServiceError):
    """The retry budget ran out; carries the last failure's shape."""

    def __init__(
        self, attempts: int, elapsed: float, last: ServiceError
    ) -> None:
        super().__init__(
            last.code,
            f"gave up after {attempts} attempts over {elapsed:.1f}s; "
            f"last error: {last.message}",
            last.retry_after,
        )
        self.attempts = attempts
        self.elapsed = elapsed
        self.last = last


#: Error codes worth retrying: the request may succeed later without
#: anything changing on the client's side.
_RETRYABLE_CODES = frozenset(
    (protocol.E_QUEUE_FULL, ServiceConnectionError.CODE)
)


class ServiceClient:
    """Blocking line-protocol client (context-manager friendly)."""

    def __init__(
        self,
        host: str = DEFAULT_HOST,
        port: int = DEFAULT_PORT,
        timeout: float = 30.0,
        client_id: str | None = None,
        retry: bool = True,
        max_attempts: int = 5,
        backoff_base: float = 0.1,
        backoff_cap: float = 2.0,
    ) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self.client_id = client_id or f"cli-{uuid.uuid4().hex[:8]}"
        self.retry = retry
        self.max_attempts = max(1, max_attempts)
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        # Seeded from the client identity: two runs of the same client
        # jitter identically (replayable), different clients de-sync.
        self._jitter = random.Random(self.client_id)
        self._sock: socket.socket | None = None
        self._file: Any = None

    # -- connection management --------------------------------------------

    def _connect(self) -> None:
        self._sock = socket.create_connection(
            (self.host, self.port), timeout=self.timeout
        )
        self._file = self._sock.makefile("rwb")

    def close(self) -> None:
        if self._file is not None:
            try:
                self._file.close()
            except OSError:
                pass
            self._file = None
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- request plumbing --------------------------------------------------

    def _roundtrip(self, wire: Mapping[str, Any]) -> Response:
        if self._file is None:
            self._connect()
        line = protocol.encode_line(wire)
        try:
            self._file.write(line)
            self._file.flush()
            answer = self._file.readline()
        except (OSError, BrokenPipeError):
            # One transparent reconnect: the previous connection went
            # away between calls (server restart, idle timeout, ...).
            self.close()
            self._connect()
            self._file.write(line)
            self._file.flush()
            answer = self._file.readline()
        if not answer:
            self.close()
            raise ServiceConnectionError(
                "server closed the connection mid-request"
            )
        return protocol.parse_response(answer)

    def _call_once(self, op: str, **fields: Any) -> dict[str, Any]:
        """One raw request; returns the success payload or raises."""
        wire: dict[str, Any] = {
            "v": PROTOCOL_VERSION, "op": op, "client": self.client_id,
        }
        wire.update(fields)
        response = self._roundtrip(wire)
        if not response.ok:
            error = dict(response.error or {})
            raise ServiceError(
                error.get("code", protocol.E_INTERNAL),
                error.get("message", "unknown server error"),
                error.get("retry_after"),
            )
        return dict(response.payload)

    def _backoff_delay(self, attempt: int, retry_after: "float | None") -> float:
        """How long to sleep before retry ``attempt`` (0-based).

        The server's ``retry_after`` hint is honoured verbatim when it
        ships one; otherwise capped exponential backoff with jitter in
        [0.5, 1.0]× so synchronized clients spread out.
        """
        if retry_after is not None and retry_after > 0:
            return retry_after
        delay = min(self.backoff_cap, self.backoff_base * (2 ** attempt))
        return delay * (0.5 + self._jitter.random() / 2)

    def call(self, op: str, **fields: Any) -> dict[str, Any]:
        """A request with the client's retry policy applied.

        Retryable failures — ``queue-full`` backpressure and lost
        connections (including an unreachable server) — are retried up
        to ``max_attempts`` with backoff; anything else raises
        immediately.  Exhausting the budget raises
        :class:`RetryBudgetExceeded`, except when every attempt failed
        to even connect, where the original ``OSError`` propagates so
        callers keep their "cannot reach service" handling.
        """
        if not self.retry:
            return self._call_once(op, **fields)
        start = time.monotonic()
        for attempt in range(self.max_attempts):
            last_attempt = attempt == self.max_attempts - 1
            try:
                return self._call_once(op, **fields)
            except ServiceError as exc:
                if exc.code not in _RETRYABLE_CODES:
                    raise
                if last_attempt:
                    raise RetryBudgetExceeded(
                        self.max_attempts, time.monotonic() - start, exc
                    ) from exc
                delay = self._backoff_delay(attempt, exc.retry_after)
            except OSError:
                # Could not connect at all (_roundtrip already spent
                # its one transparent reconnect).  Retry, but let the
                # original error through on exhaustion.
                self.close()
                if last_attempt:
                    raise
                delay = self._backoff_delay(attempt, None)
            inc_counter("repro_client_retries_total")
            time.sleep(delay)
        raise AssertionError("unreachable")

    # -- operations --------------------------------------------------------

    def submit_artifact(
        self,
        artifact: str,
        repeats: int | None = None,
        seed: int = 0,
        priority: int = protocol.DEFAULT_PRIORITY,
        trace_id: str | None = None,
    ) -> dict[str, Any]:
        """Submit a registered artifact; returns the job snapshot.

        Pass ``trace_id`` to correlate the served execution's spans
        with the caller's own telemetry (see :mod:`repro.obs`).
        """
        fields: dict[str, Any] = {
            "kind": "artifact", "artifact": artifact,
            "seed": seed, "priority": priority,
        }
        if repeats is not None:
            fields["repeats"] = repeats
        if trace_id is not None:
            fields["trace_id"] = trace_id
        payload = self.call("submit", **fields)
        return payload["job"]

    def submit_plan(
        self,
        plan: Mapping[str, Any],
        priority: int = protocol.DEFAULT_PRIORITY,
        trace_id: str | None = None,
    ) -> dict[str, Any]:
        """Submit a declarative measurement plan; returns the snapshot."""
        fields: dict[str, Any] = {
            "kind": "plan", "plan": dict(plan), "priority": priority,
        }
        if trace_id is not None:
            fields["trace_id"] = trace_id
        payload = self.call("submit", **fields)
        return payload["job"]

    def status(self, job_id: str) -> dict[str, Any]:
        return self.call("status", job=job_id)["job"]

    def result(self, job_id: str) -> dict[str, Any]:
        return self.call("result", job=job_id)["result"]

    def cancel(self, job_id: str) -> dict[str, Any]:
        return self.call("cancel", job=job_id)["job"]

    def health(self) -> dict[str, Any]:
        return self.call("health")

    def metrics(self) -> str:
        return self.call("metrics")["text"]

    def list_artifacts(self) -> list[dict[str, Any]]:
        return self.call("list")["artifacts"]

    def wait(
        self, job_id: str, timeout: float = 600.0, poll: float = 0.05
    ) -> dict[str, Any]:
        """Poll until the job finishes; returns its result payload.

        Raises :class:`ServiceError` if the job failed or was
        cancelled, and :class:`TimeoutError` past ``timeout`` seconds.
        """
        deadline = time.monotonic() + timeout
        interval = poll
        while True:
            job = self.status(job_id)
            state = job["state"]
            if state == "done":
                return self.result(job_id)
            if state in ("failed", "cancelled"):
                raise ServiceError(
                    protocol.E_CONFLICT,
                    f"job {job_id} {state}: {job.get('error', 'no detail')}",
                )
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"job {job_id} still {state} after {timeout}s"
                )
            time.sleep(interval)
            interval = min(interval * 1.5, 1.0)  # ease off long jobs


def submit_with_retry(
    client: ServiceClient,
    *,
    artifact: str,
    repeats: int | None = None,
    seed: int = 0,
    priority: int = protocol.DEFAULT_PRIORITY,
    attempts: int = 5,
    trace_id: str | None = None,
) -> dict[str, Any]:
    """Submit, honouring ``queue-full`` backpressure up to ``attempts``.

    Kept for API compatibility: since retry became the client default,
    ``client.submit_artifact`` already does this (with jittered
    backoff and connection recovery on top).  This wrapper remains the
    bounded-retry path for clients constructed with ``retry=False``.
    """
    for attempt in range(attempts):
        try:
            return client.submit_artifact(
                artifact,
                repeats=repeats,
                seed=seed,
                priority=priority,
                trace_id=trace_id,
            )
        except ServiceError as exc:
            if exc.code != protocol.E_QUEUE_FULL or attempt == attempts - 1:
                raise
            time.sleep(exc.retry_after or 0.1)
    raise AssertionError("unreachable")
