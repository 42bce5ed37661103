"""Seeded corruption fuzzing of the warm backend's wire format.

The decode contract under arbitrary damage: a corrupted stream either
raises :class:`FrameError` or yields a strict prefix of the original
frames — never a hang, never a multi-gigabyte allocation, never a
silently different decode.  The CRC32 in every frame header is what
makes this hold for payload damage; the ``MAX_PAYLOAD`` bound covers
length-field damage.

Each case is driven by its own seeded ``random.Random``, so a failure
reproduces from the printed seed alone.
"""

import pickle
import random

import pytest

from repro.backend import frames
from repro.backend.frames import (
    FrameError,
    FrameReader,
    decode_batch,
    decode_results,
    encode_batch,
    encode_frame,
    encode_results,
)

#: The ceiling any single decode may allocate; far above every legal
#: frame in these streams, far below "the corrupt length was trusted".
SANE_BUFFER = 4 * 1024 * 1024


def build_stream(rng):
    """A realistic multi-frame stream and its expected decode."""
    expected = []
    parts = []
    for _ in range(rng.randrange(2, 6)):
        kind = rng.choice([frames.HELLO, frames.BATCH, frames.RESULTS])
        if kind == frames.HELLO:
            payload = b""
        elif kind == frames.BATCH:
            entries = [
                (0, rng.randrange(1000))
                for _ in range(rng.randrange(1, 5))
            ]
            payload = encode_batch(rng.randrange(100), entries)
        else:
            payload = encode_results(
                rng.randrange(100), rng.randrange(10), rng.random(),
                [f"r{i}" for i in range(rng.randrange(1, 4))],
            )
        expected.append((kind, payload))
        parts.append(encode_frame(kind, payload))
    return b"".join(parts), expected


def corrupt(rng, stream):
    """One seeded mutation: truncation, bit flip, or byte overwrite."""
    mode = rng.choice(["truncate", "flip", "overwrite"])
    if mode == "truncate" or len(stream) == 0:
        return stream[:rng.randrange(len(stream))]
    damaged = bytearray(stream)
    position = rng.randrange(len(damaged))
    if mode == "flip":
        damaged[position] ^= 1 << rng.randrange(8)
    else:
        damaged[position] = rng.randrange(256)
    return bytes(damaged)


def drain(reader, data, chunk):
    """Feed ``data`` in chunks; returns the decoded frames."""
    got = []
    for start in range(0, len(data), chunk):
        got.extend(reader.feed(data[start:start + chunk]))
    return got


@pytest.mark.parametrize("seed", range(200))
def test_corrupted_stream_is_error_or_strict_prefix(seed):
    rng = random.Random(seed)
    stream, expected = build_stream(rng)
    damaged = corrupt(rng, stream)
    reader = FrameReader()
    try:
        got = drain(reader, damaged, chunk=rng.choice([1, 7, len(stream)]))
    except FrameError:
        return  # loud failure: exactly what corruption should produce
    # No error: everything decoded must be a prefix of the original
    # frames (truncation legitimately yields fewer complete frames),
    # and the reader must not be sitting on an absurd allocation.
    assert got == expected[:len(got)], f"silent wrong decode at seed {seed}"
    assert len(reader._buffer) <= SANE_BUFFER


@pytest.mark.parametrize("seed", range(100))
def test_corrupted_batch_payload_never_escapes_frame_error(seed):
    rng = random.Random(seed)
    entries = [(0, rng.randrange(1000)) for _ in range(3)]
    payload = encode_batch(7, entries, extras=("job",))
    damaged = corrupt(rng, payload)
    try:
        batch = decode_batch(damaged)
    except FrameError:
        return
    # The tail is pickled, so a flip there can still deserialize; the
    # decoder's shape checks guarantee the result is at least typed
    # sanely — the CRC layer above is what rejects it in production.
    assert isinstance(batch.entries, tuple)
    assert isinstance(batch.extras, tuple)


@pytest.mark.parametrize("seed", range(100))
def test_corrupted_results_payload_never_escapes_frame_error(seed):
    rng = random.Random(seed)
    payload = encode_results(3, 17, 0.125, ["r0", "r1"])
    damaged = corrupt(rng, payload)
    try:
        _, _, _, results = decode_results(damaged)
    except FrameError:
        return
    assert isinstance(results, list)


def test_corrupt_length_field_never_allocates_the_lie():
    # Force the worst case: the length bytes corrupt to a huge value.
    frame = bytearray(encode_frame(frames.RESULTS, b"payload"))
    frame[0:4] = (0xFFFFFFFF).to_bytes(4, "little")
    with pytest.raises(FrameError, match="too large"):
        FrameReader().feed(bytes(frame))


def test_failure_frame_body_is_validated_by_consumer():
    # The warm coordinator unpickles FAILURE bodies; a damaged body
    # must be representable as a FrameError there, so the payload
    # itself has to be un-unpicklable, not segfault-y.  Pin that a
    # garbage body raises cleanly at pickle level.
    with pytest.raises(Exception):
        pickle.loads(b"\x80garbage")
