"""The whole-column decoder is the scalar decoder, value for value.

A ``VectorTable`` row built from ``vector_decode`` yields the values
``decode`` returns -- equal and of the same Python type, for every
width, byte order, signedness, mapping and raw the encoding can hold --
or ``vector_decode`` returns None and leaves the rule to the scalar
path; it never differs. Also here:
the closed-form geometry the kernels' length check reads, and the
rejection of non-finite scalings no decoder could evaluate.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.protocols.signalcodec import (
    INTEL,
    MOTOROLA,
    CodecError,
    SignalEncoding,
    VectorTable,
)

BYTE_ORDERS = st.sampled_from([INTEL, MOTOROLA])

#: Integral and fractional mappings, as floats (what a DBC yields) and
#: as Python ints (what a literal in a catalog yields).
SCALES = st.sampled_from(
    [1.0, 2.0, -1.0, 0.5, 0.1, -0.25, 1e-3, 3.0e10, 1e300, 1, 2, -3,
     10 ** 6, 2 ** 40]
)
OFFSETS = st.sampled_from(
    [0.0, -40.0, 0.5, -0.1, 1e9, 2.0 ** 60, -0.0, 0, -40, 10 ** 9, 2 ** 60]
)


@st.composite
def encodings(draw, value_tables=st.booleans()):
    byte_order = draw(BYTE_ORDERS)
    length = draw(st.integers(1, 64))
    start_bit = draw(st.integers(0, 95))
    signed = draw(st.booleans())
    table = ()
    if draw(value_tables):
        raws = draw(st.lists(st.integers(-4, 12), max_size=5, unique=True))
        table = tuple((raw, "label_{}".format(raw)) for raw in raws)
    return SignalEncoding(
        start_bit, length, byte_order, signed,
        scale=draw(SCALES), offset=draw(OFFSETS), value_table=table,
    )


@st.composite
def payloads_for(draw, encoding):
    """Payloads holding *encoding*, biased to its extreme raws."""
    need = encoding.required_payload_length()
    count = draw(st.integers(1, 6))
    out = []
    for _unused in range(count):
        size = need + draw(st.integers(0, 3))
        fill = draw(st.sampled_from(["ones", "zeros", "random", "random"]))
        if fill == "ones":
            out.append(b"\xff" * size)
        elif fill == "zeros":
            out.append(bytes(size))
        else:
            out.append(draw(st.binary(min_size=size, max_size=size)))
    return out


def _vector_decode(encoding, payloads):
    """``decode`` per payload through a table of the encoding and two
    other signals, one pass over all three's slots, or None."""
    decode = encoding.vector_decode()
    if decode is None:
        return None
    others = [SignalEncoding(3, 5, MOTOROLA, signed=True).vector_decode(),
              SignalEncoding(0, 2, value_table=((1, "x"),)).vector_decode()]
    table = VectorTable(others[:1] + [decode] + others[1:])
    lengths = np.array([len(p) for p in payloads])
    blob = np.frombuffer(b"".join(payloads) + bytes(8), dtype=np.uint8)
    starts = np.cumsum(lengths) - lengths
    # Each payload once per signal, slots of the three interleaved.
    rows = np.tile([0, 1, 2], len(payloads))
    values = table.decode(blob, np.repeat(starts, 3), rows).tolist()
    return values[1::3]


def _typed(values):
    return [(type(v), v) for v in values]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_vector_decode_equals_decode_in_value_and_type(data):
    encoding = data.draw(encodings())
    payloads = data.draw(payloads_for(encoding))
    got = _vector_decode(encoding, payloads)
    assume(got is not None)
    assert _typed(got) == _typed([encoding.decode(p) for p in payloads])
    compiled = encoding.compile_decoder()
    assert _typed(got) == _typed([compiled(p) for p in payloads])


@settings(max_examples=200, deadline=None)
@given(
    byte_order=BYTE_ORDERS,
    signed=st.booleans(),
    length=st.integers(54, 64),
    start_byte=st.integers(0, 3),
    raw_bits=st.integers(0, 2 ** 64 - 1),
    scale=st.sampled_from([1.0, 0.5, 2.0, 0.001]),
)
def test_raws_above_2_53_round_like_python(
    byte_order, signed, length, start_byte, raw_bits, scale
):
    """int -> float64 conversion of wide raws matches ``float(raw)``."""
    start_bit = 8 * start_byte + (7 if byte_order == MOTOROLA else 0)
    encoding = SignalEncoding(
        start_bit, length, byte_order, signed, scale=scale
    )
    payload = bytearray(encoding.required_payload_length() + 1)
    raw = raw_bits & ((1 << length) - 1)
    if signed and raw >= 1 << (length - 1):
        raw -= 1 << length
    encoding.insert_raw(payload, raw)
    got = _vector_decode(encoding, [bytes(payload)])
    assume(got is not None)
    assert _typed(got) == _typed([encoding.decode(bytes(payload))])


def test_64_bit_unsigned_edge_falls_back_rather_than_differ():
    """``int(float(2**64 - 1))`` is 2**64: outside int64, so the kernel
    declines and the scalar decoder keeps producing today's value."""
    encoding = SignalEncoding(0, 64, scale=1.0)
    assert encoding.decode(b"\xff" * 8) == 18446744073709551616
    assert encoding.vector_decode() is None
    # Two bits narrower, float(raw) stays below 2**63 and is exact.
    narrower = SignalEncoding(0, 62, scale=1.0)
    assert _typed(_vector_decode(narrower, [b"\xff" * 8])) == _typed(
        [narrower.decode(b"\xff" * 8)]
    )
    # A fractional scale never converts to int: all 64 bits stay vector.
    fractional = SignalEncoding(0, 64, scale=0.5)
    assert _typed(_vector_decode(fractional, [b"\xff" * 8])) == _typed(
        [fractional.decode(b"\xff" * 8)]
    )


def test_nine_byte_spans_and_inexact_int_arithmetic_fall_back():
    assert SignalEncoding(4, 64).vector_decode() is None
    assert SignalEncoding(3, 62, MOTOROLA).vector_decode() is None
    # Python computes raw * 3 exactly; float64 cannot beyond 2**53.
    assert SignalEncoding(0, 60, scale=3).vector_decode() is None
    assert SignalEncoding(0, 16, scale=3).vector_decode() is not None


def test_unmapped_raws_are_named_like_decode():
    encoding = SignalEncoding(
        4, 4, signed=True, value_table=((1, "on"), (-2, "fault"))
    )
    payloads = [bytes([raw << 4]) for raw in range(16)]
    got = _vector_decode(encoding, payloads)
    assert got == [encoding.decode(p) for p in payloads]
    assert "raw_-1" in got and "fault" in got and "raw_0" in got


def test_words_may_read_past_a_payload_but_only_the_pad():
    """Payloads shorter than eight bytes: the word spills into the next
    payload (or the pad), and the mask removes the spill."""
    encoding = SignalEncoding(8, 8)
    payloads = [b"\x01\x02", b"\xaa\xbb\xcc", b"\x03\x04"]
    assert _vector_decode(encoding, payloads) == [2, 0xBB, 4]


@settings(max_examples=300, deadline=None)
@given(
    byte_order=BYTE_ORDERS,
    start_bit=st.integers(0, 511),
    length=st.integers(1, 64),
)
def test_byte_span_is_the_extent_of_the_bit_positions(
    byte_order, start_bit, length
):
    encoding = SignalEncoding(start_bit, length, byte_order)
    positions = encoding.bit_positions()
    assert encoding.byte_span() == (
        min(positions) // 8, max(positions) // 8
    )
    assert encoding.required_payload_length() == max(positions) // 8 + 1


@pytest.mark.parametrize("field", ["scale", "offset"])
@pytest.mark.parametrize(
    "value", [float("nan"), float("inf"), float("-inf")]
)
def test_non_finite_scaling_is_rejected_at_construction(field, value):
    with pytest.raises(CodecError, match="{} must be finite".format(field)):
        SignalEncoding(0, 8, **{field: value})
