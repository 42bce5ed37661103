"""The asyncio streams front-end of the measurement service.

One connection may carry any number of newline-delimited requests;
each gets exactly one response line, in order.  The server is thin by
design — parse, dispatch to the :class:`~repro.service.scheduler.
Scheduler`, serialize — and every failure mode is a *structured*
error response (bad JSON, unknown op, version skew, backpressure,
per-request timeout), never a dropped connection, so clients can
always dispatch on ``error.code``.

Graceful shutdown (``shutdown()``, or SIGINT under ``repro serve``):
stop accepting connections, close admission, cancel queued jobs, let
running jobs finish, then return.  :class:`ServiceInThread` hosts the
same server on a background thread with its own event loop — the
harness the test suite and embedding callers use.
"""

from __future__ import annotations

import asyncio
import threading
import time
from typing import Any

from repro.obs.logging import StructuredLogger, get_logger
from repro.obs.metrics import MetricsRegistry, build_unified_registry
from repro.service import protocol
from repro.service.protocol import (
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
)
from repro.chaos import should_fire as chaos_should_fire
from repro.service.queue import JobQueue, QueueFull
from repro.service.scheduler import (
    JobState,
    Scheduler,
    SchedulerClosed,
    artifact_job,
    plan_job,
)

DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 7471

#: One request line may not exceed this many bytes (a plan with a few
#: thousand jobs fits comfortably; a runaway client does not).
MAX_LINE_BYTES = 4 * 1024 * 1024


class MeasurementServer:
    """Accepts protocol requests and drives them through a scheduler."""

    def __init__(
        self,
        host: str = DEFAULT_HOST,
        port: int = 0,
        workers: int = 1,
        queue_depth: int = 256,
        request_timeout: float = 60.0,
        registry: MetricsRegistry | None = None,
        logger: StructuredLogger | None = None,
        slow_job_threshold: float | None = 30.0,
        backend: str | None = None,
    ) -> None:
        self.host = host
        self.port = port
        self.request_timeout = request_timeout
        queue = JobQueue(max_depth=queue_depth)
        self.registry = registry if registry is not None else (
            build_unified_registry(
                queue_depth=lambda: queue.depth,
                running=lambda: self.scheduler.running,
            )
        )
        self.logger = logger if logger is not None else get_logger()
        self.scheduler = Scheduler(
            queue=queue,
            workers=workers,
            registry=self.registry,
            logger=self.logger,
            slow_job_threshold=slow_job_threshold,
            backend=backend,
        )
        self.started_at = time.monotonic()
        self._server: asyncio.base_events.Server | None = None

    # -- lifecycle --------------------------------------------------------

    async def start(self) -> None:
        """Bind, start workers, resolve the actual port (for port=0)."""
        self.scheduler.start()
        self._server = await asyncio.start_server(
            self._handle_connection,
            host=self.host,
            port=self.port,
            limit=MAX_LINE_BYTES,
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self.started_at = time.monotonic()

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        async with self._server:
            await self._server.serve_forever()

    async def shutdown(self, grace: float | None = 30.0) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.scheduler.shutdown(grace=grace)

    # -- connection handling ----------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    line = await reader.readline()
                except (ConnectionError, asyncio.LimitOverrunError, ValueError):
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                response = await self._respond(line)
                if chaos_should_fire("conn-drop"):
                    # Drop the connection with the response computed
                    # but unsent — the worst case for a client, which
                    # cannot know whether the request took effect.
                    break
                writer.write(protocol.encode_line(response))
                try:
                    await writer.drain()
                except ConnectionError:
                    break
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _respond(self, line: bytes) -> Response:
        """One response per request line; all failures are structured."""
        self._count("repro_requests_total")
        op = "?"
        try:
            request = protocol.parse_request(line)
            op = request.op
            return await asyncio.wait_for(
                self._dispatch(request), timeout=self.request_timeout
            )
        except ProtocolError as exc:
            self._count("repro_request_errors_total")
            return Response.failure(op, exc.code, exc.message, exc.retry_after)
        except asyncio.TimeoutError:
            self._count("repro_request_errors_total")
            return Response.failure(
                op, protocol.E_TIMEOUT,
                f"request exceeded the {self.request_timeout}s server limit",
            )
        except Exception as exc:  # a handler bug must not kill the server
            self._count("repro_request_errors_total")
            return Response.failure(
                op, protocol.E_INTERNAL, f"{type(exc).__name__}: {exc}"
            )

    def _count(self, name: str) -> None:
        metric = self.registry.get(name)
        if metric is not None:
            metric.inc()

    # -- dispatch ---------------------------------------------------------

    async def _dispatch(self, request: Request) -> Response:
        if isinstance(request, SubmitRequest):
            return self._handle_submit(request)
        if isinstance(request, StatusRequest):
            return self._handle_status(request)
        if isinstance(request, ResultRequest):
            return self._handle_result(request)
        if isinstance(request, CancelRequest):
            return self._handle_cancel(request)
        if isinstance(request, HealthRequest):
            return self._handle_health()
        if isinstance(request, MetricsRequest):
            return Response.success("metrics", text=self.registry.render())
        if isinstance(request, ListRequest):
            return self._handle_list()
        raise ProtocolError(
            protocol.E_UNKNOWN_OP, f"unhandled op {request.op!r}"
        )

    def _handle_submit(self, request: SubmitRequest) -> Response:
        from repro.errors import ReproError

        try:
            if request.kind == "artifact":
                token, description, run = artifact_job(
                    request.artifact, request.repeats, request.seed
                )
            else:
                token, description, run = plan_job(
                    request.plan, backend=self.scheduler.backend
                )
        except ReproError as exc:
            code = (
                protocol.E_UNKNOWN_ARTIFACT
                if "unknown artifact" in str(exc)
                else protocol.E_BAD_REQUEST
            )
            raise ProtocolError(code, str(exc)) from None
        try:
            record, coalesced = self.scheduler.submit(
                token=token,
                kind=request.kind,
                description=description,
                run=run,
                client=request.client,
                priority=request.priority,
                artifact=request.artifact,
            )
        except QueueFull as exc:
            raise ProtocolError(
                protocol.E_QUEUE_FULL, str(exc), retry_after=exc.retry_after
            ) from None
        except SchedulerClosed as exc:
            raise ProtocolError(protocol.E_SHUTTING_DOWN, str(exc)) from None
        return Response.success(
            "submit", job=record.snapshot(), coalesced=coalesced
        )

    def _require_job(self, job_id: str):
        record = self.scheduler.get(job_id)
        if record is None:
            raise ProtocolError(
                protocol.E_UNKNOWN_JOB, f"unknown job {job_id!r}"
            )
        return record

    def _handle_status(self, request: StatusRequest) -> Response:
        record = self._require_job(request.job_id)
        return Response.success("status", job=record.snapshot())

    def _handle_result(self, request: ResultRequest) -> Response:
        record = self._require_job(request.job_id)
        if record.state is JobState.DONE:
            return Response.success(
                "result", job=record.snapshot(), result=dict(record.payload or {})
            )
        if record.state.finished:  # failed / cancelled
            raise ProtocolError(
                protocol.E_CONFLICT,
                f"job {record.id} {record.state.value}: {record.error}",
            )
        raise ProtocolError(
            protocol.E_CONFLICT,
            f"job {record.id} is still {record.state.value}; poll status",
        )

    def _handle_cancel(self, request: CancelRequest) -> Response:
        from repro.errors import ReproError

        try:
            record = self.scheduler.cancel(request.job_id)
        except ReproError as exc:
            raise ProtocolError(protocol.E_CONFLICT, str(exc)) from None
        if record is None:
            raise ProtocolError(
                protocol.E_UNKNOWN_JOB, f"unknown job {request.job_id!r}"
            )
        return Response.success("cancel", job=record.snapshot())

    def _handle_health(self) -> Response:
        from repro import __version__

        return Response.success(
            "health",
            status="shutting-down" if self.scheduler.closing else "ok",
            version=__version__,
            protocol=protocol.PROTOCOL_VERSION,
            uptime_seconds=round(time.monotonic() - self.started_at, 3),
            queue_depth=self.scheduler.queue.depth,
            running=self.scheduler.running,
            jobs=self.scheduler.stats.as_dict(),
        )

    def _handle_list(self) -> Response:
        from repro.experiments import artifact_catalog

        return Response.success("list", artifacts=artifact_catalog())


# -- entry points ----------------------------------------------------------

async def _serve(server: MeasurementServer, announce: bool) -> None:
    await server.start()
    if announce:
        # CI and wrapper scripts block on this line to know the port.
        print(
            f"repro service listening on {server.host}:{server.port}",
            flush=True,
        )
    try:
        await server.serve_forever()
    except asyncio.CancelledError:
        pass
    finally:
        await server.shutdown()


def run_service(
    host: str = DEFAULT_HOST,
    port: int = DEFAULT_PORT,
    workers: int = 1,
    queue_depth: int = 256,
    request_timeout: float = 60.0,
    announce: bool = True,
    logger: StructuredLogger | None = None,
    slow_job_threshold: float | None = 30.0,
    backend: str | None = None,
) -> int:
    """Blocking foreground service (the ``repro serve`` subcommand)."""
    server = MeasurementServer(
        host=host,
        port=port,
        workers=workers,
        queue_depth=queue_depth,
        request_timeout=request_timeout,
        logger=logger,
        slow_job_threshold=slow_job_threshold,
        backend=backend,
    )
    try:
        asyncio.run(_serve(server, announce))
    except KeyboardInterrupt:
        pass  # _serve's finally already drained the scheduler
    return 0


class ServiceInThread:
    """A live service on a daemon thread (tests and embedding).

    Binds an ephemeral port by default; ``host``/``port`` are resolved
    once the context is entered.  ``stop()`` performs the same graceful
    shutdown as SIGINT on ``repro serve``.
    """

    def __init__(self, workers: int = 2, queue_depth: int = 64, **kwargs: Any) -> None:
        self.server = MeasurementServer(
            port=0, workers=workers, queue_depth=queue_depth, **kwargs
        )
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop_requested: asyncio.Event | None = None
        self._thread: threading.Thread | None = None
        self._ready = threading.Event()
        self._startup_error: BaseException | None = None
        self._grace = 30.0

    @property
    def host(self) -> str:
        return self.server.host

    @property
    def port(self) -> int:
        return self.server.port

    @property
    def scheduler(self) -> Scheduler:
        return self.server.scheduler

    @property
    def loop(self) -> "asyncio.AbstractEventLoop | None":
        """The service's event loop (for run_coroutine_threadsafe)."""
        return self._loop

    def start(self) -> "ServiceInThread":
        async def main() -> None:
            self._loop = asyncio.get_running_loop()
            self._stop_requested = asyncio.Event()
            try:
                await self.server.start()
            except BaseException as exc:
                self._startup_error = exc
                self._ready.set()
                raise
            self._ready.set()
            serving = asyncio.create_task(self.server.serve_forever())
            await self._stop_requested.wait()
            serving.cancel()
            try:
                await serving
            except asyncio.CancelledError:
                pass
            await self.server.shutdown(grace=self._grace)

        self._thread = threading.Thread(
            target=lambda: asyncio.run(main()),
            name="repro-service",
            daemon=True,
        )
        self._thread.start()
        if not self._ready.wait(timeout=10.0):
            raise RuntimeError("service failed to start within 10s")
        if self._startup_error is not None:
            self._thread.join(timeout=10.0)
            raise RuntimeError(
                f"service failed to start: {self._startup_error}"
            )
        return self

    def stop(self, grace: float = 30.0) -> None:
        """Graceful shutdown; returns once the service thread exits."""
        if self._loop is None or self._thread is None:
            return
        self._grace = grace
        self._loop.call_soon_threadsafe(self._stop_requested.set)
        self._thread.join(timeout=grace + 10.0)
        self._thread = None

    def __enter__(self) -> "ServiceInThread":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()
