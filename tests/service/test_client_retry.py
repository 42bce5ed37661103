"""The client's default retry policy: bounded, backed off, replayable.

Units stub out ``_call_once`` so the policy is tested against exact
failure sequences without sockets; the end-to-end class drives a live
service whose queue rejects one submission or whose server hangs up on
one connection, and shows the default client riding straight through
faults that kill a ``retry=False`` client.  The tests make those
faults by patching ``JobQueue.push`` and the server's connection
handler; ``monkeypatch`` undoes both.
"""

import time

import pytest

from repro.obs.metrics import build_unified_registry
from repro.service import (
    JobQueue,
    QueueFull,
    RetryBudgetExceeded,
    ServiceClient,
    ServiceConnectionError,
    ServiceError,
    ServiceInThread,
)
from repro.service import protocol
from repro.service.server import MeasurementServer


@pytest.fixture(autouse=True)
def no_sleep(monkeypatch):
    """Record backoff sleeps instead of serving them."""
    slept = []
    monkeypatch.setattr(time, "sleep", lambda s: slept.append(s))
    yield slept


def scripted_client(failures, payload=None, **kwargs):
    """A client whose ``_call_once`` fails per script, then succeeds."""
    client = ServiceClient("localhost", 1, **kwargs)
    script = list(failures)
    calls = []

    def fake_call_once(op, **fields):
        calls.append(op)
        if script:
            raise script.pop(0)
        return payload or {"ok": True}

    client._call_once = fake_call_once
    client.calls = calls
    return client


def queue_full(retry_after=None):
    return ServiceError(protocol.E_QUEUE_FULL, "queue full", retry_after)


def reject_next_push(monkeypatch):
    """The next ``JobQueue.push`` raises ``QueueFull`` exactly as a
    saturated queue would, ``retry_after`` hint and all.  Returns the
    list the rejection is recorded in."""
    push = JobQueue.push
    rejected = []

    def push_or_reject(self, *args, **kwargs):
        if not rejected:
            rejected.append(True)
            raise QueueFull(self.depth, self.max_depth, self.retry_after_hint())
        return push(self, *args, **kwargs)

    monkeypatch.setattr(JobQueue, "push", push_or_reject)
    return rejected


def drop_first_connection(monkeypatch):
    """The server handles the first connection's request, then hangs up
    without writing the response — the worst case for a client, which
    cannot know whether the request took effect.  Patch before the
    service starts: the handler is bound when the server binds.
    Returns the list the drop is recorded in."""
    handle = MeasurementServer._handle_connection
    dropped = []

    async def drop_once(self, reader, writer):
        if dropped:
            return await handle(self, reader, writer)
        dropped.append(True)
        await self._respond(await reader.readline())
        writer.close()
        await writer.wait_closed()

    monkeypatch.setattr(MeasurementServer, "_handle_connection", drop_once)
    return dropped


class TestRetryPolicy:
    def test_transient_queue_full_is_retried_to_success(self, no_sleep):
        client = scripted_client([queue_full(), queue_full()])
        assert client.call("submit") == {"ok": True}
        assert len(client.calls) == 3
        assert len(no_sleep) == 2

    def test_connection_loss_is_retried(self):
        client = scripted_client(
            [ServiceConnectionError("server closed mid-request")]
        )
        assert client.call("status") == {"ok": True}

    def test_retry_counter_increments(self, no_sleep):
        registry = build_unified_registry()
        counter = registry.get("repro_client_retries_total")
        before = counter.value
        scripted_client([queue_full()]).call("submit")
        assert counter.value == before + 1

    def test_non_retryable_error_raises_immediately(self):
        client = scripted_client(
            [ServiceError(protocol.E_UNKNOWN_ARTIFACT, "no such artifact")]
        )
        with pytest.raises(ServiceError) as excinfo:
            client.call("submit")
        assert not isinstance(excinfo.value, RetryBudgetExceeded)
        assert len(client.calls) == 1

    def test_budget_exhaustion_is_structured(self, no_sleep):
        client = scripted_client(
            [queue_full() for _ in range(5)], max_attempts=3
        )
        with pytest.raises(RetryBudgetExceeded) as excinfo:
            client.call("submit")
        error = excinfo.value
        assert error.code == protocol.E_QUEUE_FULL
        assert error.attempts == 3
        assert error.last.message == "queue full"
        assert len(client.calls) == 3
        assert len(no_sleep) == 2  # no sleep after the final failure

    def test_oserror_retried_but_original_reraised(self, no_sleep):
        # "cannot reach service" handling in the CLI keys on OSError;
        # exhaustion must surface the original, not a wrapper.
        boom = ConnectionRefusedError("nothing listening")
        client = scripted_client([boom, boom, boom], max_attempts=3)
        with pytest.raises(ConnectionRefusedError) as excinfo:
            client.call("health")
        assert excinfo.value is boom

    def test_retry_false_never_retries(self, no_sleep):
        client = scripted_client([queue_full()], retry=False)
        with pytest.raises(ServiceError):
            client.call("submit")
        assert len(client.calls) == 1
        assert no_sleep == []


class TestBackoff:
    def test_server_retry_after_hint_is_honoured(self, no_sleep):
        client = scripted_client([queue_full(retry_after=0.7)])
        client.call("submit")
        assert no_sleep == [0.7]

    def test_exponential_growth_with_cap(self):
        client = ServiceClient(
            "localhost", 1, client_id="fixed",
            backoff_base=0.1, backoff_cap=0.4,
        )
        delays = [client._backoff_delay(a, None) for a in range(6)]
        # Jitter is in [0.5, 1.0]x of min(cap, base * 2^attempt).
        for attempt, delay in enumerate(delays):
            ceiling = min(0.4, 0.1 * (2 ** attempt))
            assert 0.5 * ceiling <= delay <= ceiling

    def test_jitter_is_seeded_by_client_id(self):
        a = ServiceClient("localhost", 1, client_id="same")
        b = ServiceClient("localhost", 1, client_id="same")
        c = ServiceClient("localhost", 1, client_id="other")
        seq_a = [a._backoff_delay(n, None) for n in range(8)]
        seq_b = [b._backoff_delay(n, None) for n in range(8)]
        seq_c = [c._backoff_delay(n, None) for n in range(8)]
        assert seq_a == seq_b  # replayable
        assert seq_a != seq_c  # de-synchronized across clients


class TestChaosEndToEnd:
    def test_queue_full_chaos_is_ridden_out_by_default(self, monkeypatch):
        # One submission per client is rejected with backpressure; the
        # default client retries through, the no-retry client dies.
        reject_next_push(monkeypatch)
        with ServiceInThread(workers=1, queue_depth=16) as handle:
            with ServiceClient(
                handle.host, handle.port, retry=False
            ) as brittle:
                with pytest.raises(ServiceError) as excinfo:
                    brittle.submit_artifact("figure4", repeats=1)
                assert excinfo.value.code == protocol.E_QUEUE_FULL
            rejected = reject_next_push(monkeypatch)
            with ServiceClient(handle.host, handle.port) as client:
                job = client.submit_artifact("figure4", repeats=1)
                result = client.wait(job["id"], timeout=120.0)
        assert rejected
        assert "report" in result

    def test_conn_drop_chaos_reconnects_transparently(self, monkeypatch):
        dropped = drop_first_connection(monkeypatch)
        with ServiceInThread(workers=1, queue_depth=16) as handle:
            with ServiceClient(handle.host, handle.port) as client:
                # First request's response is dropped on the floor;
                # the client reconnects and retries.
                health = client.health()
        assert dropped
        assert health["status"] == "ok"

    def test_conn_drop_without_retry_is_a_loud_error(self, monkeypatch):
        drop_first_connection(monkeypatch)
        with ServiceInThread(workers=1, queue_depth=16) as handle:
            with ServiceClient(
                handle.host, handle.port, retry=False
            ) as client:
                with pytest.raises(ServiceConnectionError):
                    client.health()
