"""Round-trip and malformed-input tests for the record codec."""

import math

import pytest

from repro.errors import RecordingError
from repro.recorder.codec import (
    KIND_ENTER,
    KIND_EXIT,
    KIND_TASK_BEGIN,
    KIND_TASK_END,
    RecordDecoder,
    RecordEncoder,
    decode_varint,
    encode_varint,
    unzigzag,
    zigzag,
)

from tests.recorder.streams import (
    comparable,
    make_regions,
    random_records,
    wide_records,
)


# ----------------------------------------------------------------------
# Primitives
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "value", [0, 1, 127, 128, 300, 2**20, 2**32, 2**63 - 1, 2**64 - 1]
)
def test_varint_round_trip(value):
    out = bytearray()
    encode_varint(value, out)
    decoded, offset = decode_varint(bytes(out), 0)
    assert decoded == value
    assert offset == len(out)


def test_varint_rejects_negative():
    with pytest.raises(ValueError):
        encode_varint(-1, bytearray())


def test_varint_truncated_raises():
    out = bytearray()
    encode_varint(2**20, out)
    with pytest.raises(RecordingError):
        decode_varint(bytes(out[:-1]), 0)


@pytest.mark.parametrize("value", [2**64, 2**69])
def test_varint_of_64_bits_or_more_raises(value):
    out = bytearray()
    encode_varint(value, out)
    assert len(out) == 10  # fits the byte count of a 64-bit varint
    with pytest.raises(RecordingError, match="longer than 64 bits"):
        decode_varint(bytes(out), 0)


@pytest.mark.parametrize("value", [0, 1, -1, 63, -64, 2**31, -(2**31)])
def test_zigzag_round_trip(value):
    assert unzigzag(zigzag(value)) == value


# ----------------------------------------------------------------------
# Stream round trip
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", [0, 1, 7, 42])
def test_random_stream_round_trips_exactly(seed):
    records = random_records(seed, 120)
    payload = RecordEncoder().encode(records)
    decoded = RecordDecoder().decode(payload)
    assert [comparable(r) for r in decoded] == [comparable(r) for r in records]


def test_wide_stream_round_trips_exactly():
    """Records on both sides of the decoder's inline limits decode to
    exactly what was encoded, pinned region handles included."""
    records = wide_records()
    decoded = RecordDecoder().decode(RecordEncoder().encode(records))
    assert [comparable(r) for r in decoded] == [comparable(r) for r in records]
    assert {r[3].handle for r in decoded if r[0] != "task_switch"} == {
        64, 127, 128, 20000
    }


@pytest.mark.parametrize("kind", ["task_begin", "task_end", "task_switch"])
@pytest.mark.parametrize("overlong", [b"\x80\x00", b"\x80\x80\x00"])
def test_overlong_instance_varint_decodes_like_canonical(kind, overlong):
    """A valid but over-long varint for instance 0 (two bytes: inline
    path; three bytes: checked path) decodes to the canonical record."""
    region = make_regions()[2]
    record = {
        "task_begin": ("task_begin", 1, 2.0, region, 0, None),
        "task_end": ("task_end", 1, 2.0, region, 0),
        "task_switch": ("task_switch", 1, 2.0, 0),
    }[kind]
    encoder = RecordEncoder()
    prefix = encoder.encode([("exit", 0, 1.0, region)])  # defines the region
    canonical = encoder.encode([record])
    # The instance is the last field, or just before the parameter flag.
    cut = len(canonical) - (2 if kind == "task_begin" else 1)
    assert canonical[cut] == 0
    padded = canonical[:cut] + overlong + canonical[cut + 1:]
    expected = [comparable(r) for r in RecordDecoder().decode(prefix + canonical)]
    assert [comparable(r) for r in RecordDecoder().decode(prefix + padded)] == expected
    assert expected[1] == comparable(record)


def test_times_survive_bit_exactly():
    regions = make_regions()
    awkward = [0.0, 1e-17, math.pi, 1 / 3, 2**53 + 1.0, 123456.789012345]
    records = [("exit", 0, t, regions[0]) for t in awkward]
    decoded = RecordDecoder().decode(RecordEncoder().encode(records))
    for record, time in zip(decoded, awkward):
        # == would pass for close floats; require the identical bits
        assert record[2].hex() == float(time).hex()


def test_regions_interned_once_across_chunks():
    """The second chunk referencing the same region must not re-def it,
    and a decoder that saw chunk 1 must resolve it in chunk 2."""
    regions = make_regions()
    encoder = RecordEncoder()
    first = encoder.encode([("exit", 0, 1.0, regions[0])])
    second = encoder.encode([("exit", 0, 2.0, regions[0])])
    assert len(second) < len(first)  # no repeated REGION_DEF
    decoder = RecordDecoder()
    decoder.decode(first)
    decoded = decoder.decode(second)
    assert comparable(decoded[0]) == comparable(("exit", 0, 2.0, regions[0]))


def test_decoder_interns_regions_by_identity():
    regions = make_regions()
    records = [("enter", 0, 1.0, regions[2], None), ("exit", 0, 2.0, regions[2])]
    decoded = RecordDecoder().decode(RecordEncoder().encode(records))
    assert decoded[0][3] is decoded[1][3]  # same Region object on replay


# ----------------------------------------------------------------------
# Malformed input
# ----------------------------------------------------------------------
def test_unknown_kind_byte_raises():
    with pytest.raises(RecordingError):
        RecordDecoder().decode(bytes([0x6E]))


def test_undefined_region_reference_raises():
    # ENTER referencing region id 5 with no preceding REGION_DEF
    payload = bytearray([KIND_ENTER])
    encode_varint(0, payload)  # thread
    payload += b"\x00" * 8  # time
    encode_varint(5, payload)  # undefined region id
    payload.append(0)  # no parameter
    with pytest.raises(RecordingError):
        RecordDecoder().decode(bytes(payload))


@pytest.mark.parametrize(
    "kind, tail",
    [
        (KIND_ENTER, b"\x00"),  # no parameter
        (KIND_EXIT, b""),
        (KIND_TASK_BEGIN, b"\x02\x00"),  # instance 1, no parameter
        (KIND_TASK_END, b"\x02"),
    ],
)
def test_undefined_region_raises_on_each_inline_kind(kind, tail):
    """An otherwise inline-shaped record naming an undefined one-byte
    region id still raises."""
    payload = bytes([kind, 0]) + b"\x00" * 8 + bytes([5]) + tail
    with pytest.raises(RecordingError, match="undefined region id 5"):
        RecordDecoder().decode(payload)


@pytest.mark.parametrize("seed", [0, 3])
def test_truncated_payload_raises_not_garbage(seed):
    """Any mid-record cut raises RecordingError -- it must never decode
    to wrong records or escape with IndexError/UnicodeDecodeError."""
    records = random_records(seed, 30)
    payload = RecordEncoder().encode(records)
    full = RecordDecoder().decode(payload)
    for cut in range(len(payload)):
        try:
            decoded = RecordDecoder().decode(payload[:cut])
        except RecordingError:
            continue
        # A clean record boundary: must be an exact prefix
        assert [comparable(r) for r in decoded] == [
            comparable(r) for r in full[: len(decoded)]
        ]


def test_encoder_rejects_unknown_kind():
    with pytest.raises(ValueError):
        RecordEncoder().encode([("warp", 0)])


def test_truncated_wide_payload_raises_not_garbage():
    """The truncation contract at every byte of records past the
    decoder's inline limits."""
    payload = RecordEncoder().encode(wide_records())
    full = RecordDecoder().decode(payload)
    for cut in range(len(payload)):
        try:
            decoded = RecordDecoder().decode(payload[:cut])
        except RecordingError:
            continue
        assert [comparable(r) for r in decoded] == [
            comparable(r) for r in full[: len(decoded)]
        ]
