"""Seeded fuzzing of the records a forked artifact worker sends home.

A worker of ``reproduce all --jobs N`` writes one record per finished
artifact (``repro.cli._record``): a fixed head holding the artifact's
position in the run, the cache hits and misses it took and its text's
UTF-8 length, then the text.  This process decodes whatever arrived
with ``repro.cli._records``.  A pipe loses, reorders and alters
nothing, so the one damage a stream can take is at its end: a worker
killed mid-write leaves a torn last record.  The decode contract: a
stream yields exactly the records that arrived whole, in order, with
their texts intact, and nothing of a torn one.

Each case is driven by its own seeded ``random.Random``, so a failure
reproduces from the printed seed alone.
"""

import random

import pytest

from repro.cli import _RECORD, _record, _records

#: Characters of one to four UTF-8 bytes, line breaks, a NUL and a
#: section header's punctuation: a length field that counted characters
#: instead of bytes, or a decode that split on text, would show here.
ALPHABET = "ab =:\n\t\x00é€世𝄞😀"


def random_text(rng, alphabet="abcdefghij \n"):
    size = rng.choice([0, 1, rng.randrange(2, 64), rng.randrange(64, 5000)])
    return "".join(rng.choice(alphabet) for _ in range(size))


def random_records(rng, alphabet="abcdefghij \n"):
    """What one worker might send: its artifacts' positions ascend by
    the worker count, and each took some cache hits and misses."""
    first, step = rng.randrange(8), rng.randrange(1, 6)
    return [
        (first + i * step, rng.randrange(5000), rng.randrange(30000),
         random_text(rng, alphabet))
        for i in range(rng.randrange(1, 6))
    ]


def encode(records):
    """The stream, and the offset where each record ends."""
    stream, ends = bytearray(), []
    for record in records:
        stream += _record(*record)
        ends.append(len(stream))
    return stream, ends


@pytest.mark.parametrize("seed", range(100))
def test_a_whole_stream_decodes_to_every_record(seed):
    records = random_records(random.Random(seed))
    stream, _ = encode(records)
    assert list(_records(stream)) == records


@pytest.mark.parametrize("seed", range(200))
def test_a_torn_stream_decodes_to_the_records_that_arrived_whole(seed):
    rng = random.Random(seed)
    records = random_records(rng)
    stream, ends = encode(records)
    # Cut inside a head, inside a text, or exactly between two records.
    cut = rng.choice([rng.randrange(len(stream)), rng.choice([0, *ends[:-1]])])
    whole = sum(end <= cut for end in ends)
    assert list(_records(stream[:cut])) == records[:whole], (
        f"seed {seed}: cut at byte {cut} of {len(stream)}"
    )


@pytest.mark.parametrize("seed", range(100))
def test_any_text_crosses_intact(seed):
    rng = random.Random(seed)
    records = random_records(rng, ALPHABET)
    stream, ends = encode(records)
    assert list(_records(stream)) == records
    # Cutting a record anywhere in its text, also inside a multi-byte
    # character, drops it and keeps every record before it.
    index = rng.randrange(len(records))
    start = ends[index - 1] if index else 0
    cut = rng.randrange(start + _RECORD.size, ends[index] + 1)
    kept = records[:index + 1] if cut == ends[index] else records[:index]
    assert list(_records(stream[:cut])) == kept


def test_every_cut_of_a_stream():
    records = [(0, 3, 7, "é€"), (2, 0, 0, ""), (4, 1, 2, "😀\n")]
    stream, ends = encode(records)
    for cut in range(len(stream) + 1):
        whole = sum(end <= cut for end in ends)
        assert list(_records(stream[:cut])) == records[:whole], cut


def test_nothing_sent_decodes_to_nothing():
    assert list(_records(bytearray())) == []


def test_the_length_counts_utf8_bytes():
    record = _record(1, 2, 3, "€")
    assert len(record) == _RECORD.size + 3
    assert _RECORD.unpack_from(record) == (1, 2, 3, 3)


def test_counts_beyond_32_bits_cross_intact():
    # A long-lived cache's counters outgrow 32 bits; only the position
    # (an index into the 23 artifacts) is a 32-bit field.
    record = (22, 2**40 + 1, 2**63 - 1, "x")
    assert list(_records(bytearray(_record(*record)))) == [record]
