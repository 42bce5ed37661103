"""The warm backend's wire format: frames must round-trip exactly.

Corruption must be loud — a truncated or oversized frame raises
:class:`FrameError`, a cleanly closed pipe raises
:class:`EndOfStream` — because a silently reinterpreted stream would
be a determinism bug the golden tests could never localise.
"""

import os
import struct

import pytest

from repro.backend import frames
from repro.backend.frames import (
    EndOfStream,
    FrameError,
    FrameReader,
    decode_batch,
    decode_results,
    encode_batch,
    encode_frame,
    encode_results,
    read_frame,
    write_frame,
)


class TestFrameRoundTrip:
    def test_pipe_round_trip(self):
        read_fd, write_fd = os.pipe()
        try:
            write_frame(write_fd, frames.HELLO)
            write_frame(write_fd, frames.BATCH, b"payload bytes")
            assert read_frame(read_fd) == (frames.HELLO, b"")
            assert read_frame(read_fd) == (frames.BATCH, b"payload bytes")
        finally:
            os.close(read_fd)
            os.close(write_fd)

    def test_clean_close_is_end_of_stream(self):
        read_fd, write_fd = os.pipe()
        os.close(write_fd)
        try:
            with pytest.raises(EndOfStream):
                read_frame(read_fd)
        finally:
            os.close(read_fd)

    def test_mid_frame_truncation_is_frame_error(self):
        read_fd, write_fd = os.pipe()
        os.write(write_fd, encode_frame(frames.BATCH, b"full payload")[:7])
        os.close(write_fd)
        try:
            with pytest.raises(FrameError, match="truncated"):
                read_frame(read_fd)
        finally:
            os.close(read_fd)

    def test_unknown_kind_rejected_on_encode(self):
        with pytest.raises(FrameError, match="unknown frame kind"):
            encode_frame(99)

    def test_header_size_matches_encoding(self):
        assert len(encode_frame(frames.HELLO)) == frames.HEADER_SIZE


class TestFrameReader:
    def test_frames_split_across_arbitrary_reads(self):
        stream = b"".join(
            encode_frame(kind, payload)
            for kind, payload in [
                (frames.HELLO, b""),
                (frames.BATCH, b"abc"),
                (frames.RESULTS, b"x" * 300),
            ]
        )
        for chunk_size in (1, 2, 7, len(stream)):
            reader = FrameReader()
            got = []
            for start in range(0, len(stream), chunk_size):
                got.extend(reader.feed(stream[start:start + chunk_size]))
            assert got == [
                (frames.HELLO, b""),
                (frames.BATCH, b"abc"),
                (frames.RESULTS, b"x" * 300),
            ]

    def test_unknown_kind_in_stream_is_frame_error(self):
        reader = FrameReader()
        with pytest.raises(FrameError, match="unknown frame kind"):
            reader.feed(struct.pack("<IBI", 0, 42, 0))

    def test_oversized_length_prefix_is_frame_error(self):
        # A corrupt length must not look like a 4 GB allocation request.
        reader = FrameReader()
        header = struct.pack(
            "<IBI", frames.MAX_PAYLOAD + 1, frames.BATCH, 0
        )
        with pytest.raises(FrameError, match="too large"):
            reader.feed(header)

    def test_payload_bit_flip_is_frame_error(self):
        frame = bytearray(encode_frame(frames.RESULTS, b"result bytes"))
        frame[frames.HEADER_SIZE + 3] ^= 0x10
        reader = FrameReader()
        with pytest.raises(FrameError, match="checksum"):
            reader.feed(bytes(frame))

    def test_payload_bit_flip_is_frame_error_on_blocking_read(self):
        frame = bytearray(encode_frame(frames.BATCH, b"batch bytes"))
        frame[-1] ^= 0x01
        read_fd, write_fd = os.pipe()
        os.write(write_fd, bytes(frame))
        os.close(write_fd)
        try:
            with pytest.raises(FrameError, match="checksum"):
                read_frame(read_fd)
        finally:
            os.close(read_fd)


class TestBatchPayload:
    def test_entries_only_round_trip(self):
        entries = [(0, 7, 0), (0, -3, 1), (1, 2**40, 2)]
        batch = decode_batch(encode_batch(5, entries))
        assert batch.batch_id == 5
        assert batch.entries == tuple(entries)
        assert batch.extras == ()

    def test_extras_ride_the_tail(self):
        entries = [(frames.EXTRA_JOB, 0, 4), (2, 11, 5)]
        batch = decode_batch(encode_batch(9, entries, extras=("job-obj",)))
        assert batch.entries == tuple(entries)
        assert batch.extras == ("job-obj",)

    def test_entries_are_fixed_width(self):
        base = len(encode_batch(0, []))
        one = len(encode_batch(0, [(1, 2, 3)]))
        two = len(encode_batch(0, [(1, 2, 3), (4, 5, 6)]))
        assert one - base == two - one  # 16 bytes per job, no pickling

    def test_truncated_entry_block_is_frame_error(self):
        payload = encode_batch(1, [(0, 1, 0), (0, 2, 1)])
        with pytest.raises(FrameError, match="truncated"):
            decode_batch(payload[:-4])


class TestResultsPayload:
    def test_round_trip(self):
        payload = encode_results(3, 17, 0.125, ["r0", "r1"])
        batch_id, hits, seconds, results = decode_results(payload)
        assert (batch_id, hits, seconds) == (3, 17, 0.125)
        assert results == ["r0", "r1"]
