"""The inline backend: every job runs in the coordinating process.

This is the serial path — jobs execute in submission order, in this
process.  It is the default backend for ``--jobs 1`` and the baseline
every other backend must byte-match.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Sequence

from repro.backend.base import CompletedBatch, ExecutionBackend, run_batch_jobs


class InlineBackend(ExecutionBackend):
    """Runs batches synchronously in this process."""

    name = "inline"

    def __init__(self, batch_cap: int | None = None) -> None:
        super().__init__(batch_cap)
        self._completed: deque[CompletedBatch] = deque()
        self._next_batch = 0

    @property
    def workers(self) -> int:
        return 1

    @property
    def inflight(self) -> int:
        return len(self._completed)

    def _next_batch_size(self, pending: int, cap: int | None) -> int:
        """One dispatch unit per run: splitting buys nothing in-process."""
        return pending

    def submit(self, jobs: Sequence[Any], indices: Sequence[int]) -> int:
        """Run the batch right here, right now."""
        batch_id = self._next_batch
        self._next_batch += 1
        results, hits, seconds = run_batch_jobs(jobs)
        self._completed.append(
            CompletedBatch(
                batch_id=batch_id,
                results=results,
                snapshot_hits=hits,
                seconds=seconds,
            )
        )
        return batch_id

    def collect(self) -> CompletedBatch:
        if not self._completed:
            raise RuntimeError("no batch in flight")
        return self._completed.popleft()

    def _discard_inflight(self) -> None:
        self._completed.clear()
