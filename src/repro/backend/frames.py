"""The warm backend's wire format: length-prefixed binary frames.

Coordinator and workers talk over plain pipes.  Every message is one
*frame*::

    +----------------+------+---------------+------------------+
    | payload length | kind |     crc32     |     payload      |
    |  u32 little    |  u8  |  u32 little   |  `length` bytes  |
    +----------------+------+---------------+------------------+

Nine header bytes, then the payload.  What makes the format compact is
the :data:`BATCH` payload: a job is **not** a pickled object graph but
a 12-byte entry — ``(template id: u32, seed: i64)`` — referencing a
config/benchmark *template* the coordinator registered once per worker
(:data:`TEMPLATES`).  Only the seed varies between the thousands of
jobs of a paper-scale sweep, so a 500-job batch is ~6 KB of frame
instead of ~500 pickled plans.  Jobs that don't fit the template
scheme (ablation probes, exotic seeds) ride in a pickled tail,
referenced by the :data:`EXTRA_JOB` sentinel, so the warm backend stays
a drop-in for every :class:`~repro.exec.executor.Job`.

Frame kinds:

========== ===== ==========================================================
kind       dir   payload
========== ===== ==========================================================
HELLO      w→c   empty; the worker's event loop is up
TEMPLATES  c→w   pickled list of ``(template id, config, benchmark spec)``
BATCH      c→w   see :func:`encode_batch`
RESULTS    w→c   see :func:`encode_results`
FAILURE    w→c   pickled ``(batch id, message)`` — a job raised
SHUTDOWN   c→w   empty; finish nothing new, exit the loop
========== ===== ==========================================================

Truncated, oversized, or checksum-failing frames raise
:class:`FrameError` — a corrupt stream must never be silently
reinterpreted.  The crc32 covers the kind byte and the payload, so a
bit flipped in either is detected before the payload reaches
``pickle`` (a flipped kind can name another valid kind); a corrupted
length misaligns the payload and fails the same check.  The payload
decoders below additionally wrap every parse failure in
:class:`FrameError`, so a frame that passes its checksum but carries
garbage still fails loudly instead of crashing the coordinator with a
raw ``struct.error`` or unpickling surprise.
"""

from __future__ import annotations

import os
import pickle
import struct
import zlib
from dataclasses import dataclass
from typing import Any, Sequence

HELLO = 1
TEMPLATES = 2
BATCH = 3
RESULTS = 4
FAILURE = 5
SHUTDOWN = 6

_KINDS = frozenset((HELLO, TEMPLATES, BATCH, RESULTS, FAILURE, SHUTDOWN))

_HEADER = struct.Struct("<IBI")
#: Bytes of framing overhead per frame (length + kind + crc32 header).
HEADER_SIZE = _HEADER.size
_ENTRY = struct.Struct("<Iq")
_BATCH_HEAD = struct.Struct("<IIB")
_RESULTS_HEAD = struct.Struct("<IId")

#: Template-id sentinel: "this entry's job is pickled in the tail".
EXTRA_JOB = 0xFFFFFFFF

#: Seeds a batch entry can carry inline (i64); anything else goes to
#: the pickled tail via :data:`EXTRA_JOB`.
SEED_MIN, SEED_MAX = -(2**63), 2**63 - 1

#: One frame's payload may not exceed this (a corrupt length prefix
#: must not look like a 4 GB allocation request).
MAX_PAYLOAD = 256 * 1024 * 1024


def _checksum(kind: int, payload: bytes) -> int:
    """crc32 of the kind byte followed by the payload."""
    return zlib.crc32(payload, zlib.crc32(bytes((kind,))))


class FrameError(Exception):
    """The stream does not parse as frames (truncation, bad kind…)."""


class EndOfStream(Exception):
    """The peer closed the pipe (worker death, coordinator exit)."""


def encode_frame(kind: int, payload: bytes = b"") -> bytes:
    if kind not in _KINDS:
        raise FrameError(f"unknown frame kind {kind}")
    if len(payload) > MAX_PAYLOAD:
        raise FrameError(f"frame payload of {len(payload)} bytes too large")
    return _HEADER.pack(len(payload), kind, _checksum(kind, payload)) + payload


def write_frame(fd: int, kind: int, payload: bytes = b"") -> int:
    """Write one whole frame to a pipe fd; returns bytes written.

    Raises ``BrokenPipeError``/``OSError`` when the peer is gone — the
    coordinator turns that into a worker restart.
    """
    frame = encode_frame(kind, payload)
    view = memoryview(frame)
    while view:
        written = os.write(fd, view)
        view = view[written:]
    return len(frame)


def _read_exact(fd: int, n: int) -> bytes:
    chunks = bytearray()
    while len(chunks) < n:
        chunk = os.read(fd, n - len(chunks))
        if not chunk:
            if chunks:
                raise FrameError(
                    f"stream truncated mid-frame ({len(chunks)}/{n} bytes)"
                )
            raise EndOfStream("pipe closed")
        chunks.extend(chunk)
    return bytes(chunks)


def read_frame(fd: int) -> tuple[int, bytes]:
    """Blocking read of one whole frame (the worker's event loop)."""
    length, kind, crc = _HEADER.unpack(_read_exact(fd, _HEADER.size))
    if kind not in _KINDS:
        raise FrameError(f"unknown frame kind {kind}")
    if length > MAX_PAYLOAD:
        raise FrameError(f"frame payload of {length} bytes too large")
    payload = _read_exact(fd, length) if length else b""
    if _checksum(kind, payload) != crc:
        raise FrameError(
            f"frame checksum mismatch (kind {kind}, {length} bytes)"
        )
    return kind, payload


class FrameReader:
    """Incremental frame parser for the coordinator's non-blocking side.

    Feed it whatever ``os.read`` returned; it yields every frame that
    has fully arrived and buffers the rest.
    """

    def __init__(self) -> None:
        self._buffer = bytearray()

    def feed(self, data: bytes) -> list[tuple[int, bytes]]:
        self._buffer.extend(data)
        frames: list[tuple[int, bytes]] = []
        while True:
            if len(self._buffer) < _HEADER.size:
                return frames
            length, kind, crc = _HEADER.unpack_from(self._buffer)
            if kind not in _KINDS:
                raise FrameError(f"unknown frame kind {kind}")
            if length > MAX_PAYLOAD:
                raise FrameError(f"frame payload of {length} bytes too large")
            end = _HEADER.size + length
            if len(self._buffer) < end:
                return frames
            payload = bytes(self._buffer[_HEADER.size:end])
            if _checksum(kind, payload) != crc:
                raise FrameError(
                    f"frame checksum mismatch (kind {kind}, {length} bytes)"
                )
            frames.append((kind, payload))
            del self._buffer[:end]


# -- batch / results payloads ----------------------------------------------

@dataclass(frozen=True)
class BatchFrame:
    """A decoded :data:`BATCH` payload."""

    batch_id: int
    #: ``(template id, seed)`` per job, in batch order.
    entries: tuple[tuple[int, int], ...]
    #: Pickled whole jobs, consumed in order by :data:`EXTRA_JOB` entries.
    extras: tuple[Any, ...]


def encode_batch(
    batch_id: int,
    entries: Sequence[tuple[int, int]],
    extras: Sequence[Any] = (),
) -> bytes:
    """Pack one batch: fixed 12-byte entries plus an optional tail."""
    parts = [_BATCH_HEAD.pack(batch_id, len(entries), int(bool(extras)))]
    for template_id, seed in entries:
        parts.append(_ENTRY.pack(template_id, seed))
    if extras:
        parts.append(
            pickle.dumps(tuple(extras), protocol=pickle.HIGHEST_PROTOCOL)
        )
    return b"".join(parts)


def decode_batch(payload: bytes) -> BatchFrame:
    try:
        batch_id, count, has_tail = _BATCH_HEAD.unpack_from(payload)
    except struct.error as exc:
        raise FrameError(f"batch frame too short for its header: {exc}") from exc
    offset = _BATCH_HEAD.size
    need = offset + count * _ENTRY.size
    if len(payload) < need:
        raise FrameError(
            f"batch frame truncated: {len(payload)} bytes for {count} entries"
        )
    entries = tuple(
        _ENTRY.unpack_from(payload, offset + i * _ENTRY.size)
        for i in range(count)
    )
    extras: tuple[Any, ...] = ()
    if has_tail:
        try:
            extras = pickle.loads(payload[need:])
        except Exception as exc:
            raise FrameError(f"batch frame tail does not decode: {exc}") from exc
        if not isinstance(extras, tuple):
            raise FrameError("batch frame tail has the wrong shape")
    return BatchFrame(batch_id, entries, extras)


def encode_results(
    batch_id: int,
    snapshot_hits: int,
    seconds: float,
    results: Sequence[Any],
) -> bytes:
    """Pack one batch's outcome: accounting header + pickled results."""
    head = _RESULTS_HEAD.pack(batch_id, snapshot_hits, seconds)
    return head + pickle.dumps(list(results), protocol=pickle.HIGHEST_PROTOCOL)


def decode_results(payload: bytes) -> "tuple[int, int, float, list[Any]]":
    try:
        batch_id, snapshot_hits, seconds = _RESULTS_HEAD.unpack_from(payload)
    except struct.error as exc:
        raise FrameError(
            f"results frame too short for its header: {exc}"
        ) from exc
    try:
        results = pickle.loads(payload[_RESULTS_HEAD.size:])
    except Exception as exc:
        raise FrameError(f"results frame body does not decode: {exc}") from exc
    if not isinstance(results, list):
        raise FrameError("results frame body has the wrong shape")
    return batch_id, snapshot_hits, seconds, results

