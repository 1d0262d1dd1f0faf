"""Bit-level signal packing and unpacking.

In-vehicle signals are packed into frame payloads at arbitrary bit
positions, with either Intel (little-endian) or Motorola (big-endian) bit
ordering, optional two's-complement signedness and a linear
physical-value mapping ``physical = scale * raw + offset`` -- the same
model used by DBC/FIBEX databases. This module implements that packing
from scratch; it is the ``u_2`` workhorse behind the paper's
interpretation rules (Sec. 3.2).

Bit numbering follows the DBC convention: bit ``i`` lives in byte
``i // 8`` at in-byte position ``i % 8`` (LSB = 0). For Intel signals the
start bit is the least-significant bit of the raw value and the value
grows towards higher bit numbers. For Motorola signals the start bit is
the *most*-significant bit and the value grows towards lower in-byte
positions, wrapping to the next byte's bit 7 (the "sawtooth").
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from repro.engine.columnar import FLOAT, INT, LABEL, ValueColumn

INTEL = "intel"
MOTOROLA = "motorola"


class CodecError(ValueError):
    """Raised when an encoding is inconsistent or a value does not fit."""


class ShortPayloadError(CodecError):
    """A payload is too short to hold the bytes a rule needs.

    The one structured truncation error of the decode stack: raw
    extraction (interpreted and compiled), rule-level relevant-byte
    slicing and SOME/IP section lookup all raise this same type, so
    truncated frames surface identically no matter which execution
    path (row-interpreted or columnar batch) touched them.
    """


def _intel_bit_positions(start_bit, length):
    """Absolute bit positions, LSB first, for an Intel signal."""
    return list(range(start_bit, start_bit + length))


def _motorola_bit_positions(start_bit, length):
    """Absolute bit positions, LSB first, for a Motorola signal.

    ``start_bit`` addresses the MSB. Successive (less significant) bits
    run from in-byte position down to 0, then jump to the next byte's
    bit 7.
    """
    positions_msb_first = []
    byte_index = start_bit // 8
    in_byte = start_bit % 8
    for _unused in range(length):
        positions_msb_first.append(byte_index * 8 + in_byte)
        if in_byte == 0:
            byte_index += 1
            in_byte = 7
        else:
            in_byte -= 1
    return positions_msb_first[::-1]


class VectorDecode(NamedTuple):
    """How :class:`VectorTable` decodes one signal, as plain data: the
    8-byte word at payload byte ``base`` in its byte order, shifted
    right and masked, two's complement where ``sign_bit`` (the raw's top
    bit) is set, then ``value_table``'s label or ``scale * raw +
    offset`` -- an ``int`` where ``integral`` holds, else a ``float``."""

    big_endian: bool
    base: int
    shift: int
    mask: int
    sign_bit: int
    scale: float
    offset: float
    integral: bool
    value_table: tuple


#: A :class:`VectorTable` row. ``sign_bit`` is 0 for a 64-bit signed raw
#: (its int64 word is it); ``wide`` marks an unsigned 64-bit raw.
_ROW = np.dtype([
    ("big_endian", bool), ("base", np.intp), ("shift", np.uint64),
    ("mask", np.uint64), ("sign_bit", np.int64), ("wide", bool),
    ("scale", np.float64), ("offset", np.float64), ("integral", bool),
    ("tabled", bool),
])


class VectorTable:
    """The :class:`VectorDecode` parameters of many signals, one row
    each, so that one :meth:`decode` pass reads slots of all of them."""

    def __init__(self, decodes):
        table = np.array([
            (d.big_endian, d.base, d.shift, d.mask,
             d.sign_bit if d.sign_bit < 1 << 63 else 0,
             not d.sign_bit and d.mask == (1 << 64) - 1, d.scale, d.offset,
             d.integral, bool(d.value_table)) for d in decodes
        ], dtype=_ROW)
        # field name -> its column, one entry per signal
        self._columns = {name: table[name].copy() for name in _ROW.names}
        self._tables = [dict(d.value_table) for d in decodes]

    def decode(self, blob, positions, rows):
        """A :class:`~repro.engine.columnar.ValueColumn`: slot *i* decodes
        signal ``rows[i]`` from the payload at byte ``positions[i]`` of
        *blob* as :meth:`SignalEncoding.decode` would. *blob* is
        ``uint8`` with eight pad bytes at its end: a word may read past
        its payload, and the mask removes those bits."""
        column = self._columns
        # Element i of this view is the little-endian word at byte i.
        words = np.ndarray((len(blob) - 7,), "<u8", blob, strides=(1,))[
            positions + column["base"][rows]
        ]
        big = column["big_endian"][rows]
        if big.any():
            words = np.where(big, words.byteswap(), words)
        raw = (words >> column["shift"][rows]) & column["mask"][rows]
        sign = column["sign_bit"][rows]
        raws = (raw.view(np.int64) ^ sign) - sign
        physical = raws.astype(np.float64)
        wide = column["wide"][rows]
        physical[wide] = raw[wide].astype(np.float64)
        physical *= column["scale"][rows]
        physical += column["offset"][rows]
        kinds = np.where(column["integral"][rows], INT, FLOAT).astype(np.uint8)
        tabled = column["tabled"][rows]
        kinds[tabled] = LABEL
        physical[tabled], labels = self._label(rows[tabled], raws[tabled],
                                               wide[tabled])
        return ValueColumn(physical, kinds, labels)

    def _label(self, rows, raws, wide):
        """The codes of the labels of ``(rows[i], raws[i])`` and the
        labels, each distinct pair looked up once; a *wide* raw comes as
        its int64 bits."""
        order = np.lexsort((raws, rows))
        rows, raws, wide = rows[order], raws[order], wide[order]
        new = np.ones(len(order), dtype=bool)
        new[1:] = (rows[1:] != rows[:-1]) | (raws[1:] != raws[:-1])
        firsts = np.flatnonzero(new)
        labels, codes = {}, []
        for row, raw, unsigned in zip(
            rows[firsts].tolist(), raws[firsts].tolist(),
            wide[firsts].tolist(),
        ):
            raw = raw % (1 << 64) if unsigned else raw
            label = self._tables[row].get(raw, "raw_{}".format(raw))
            codes.append(labels.setdefault(label, len(labels)))
        out = np.empty(len(order))
        out[order] = np.array(codes, float)[np.cumsum(new) - 1]
        return out, tuple(labels)


@dataclass(frozen=True)
class SignalEncoding:
    """How one signal is laid out in a payload and scaled to physical units.

    Parameters
    ----------
    start_bit:
        DBC-style start bit (LSB for Intel, MSB for Motorola).
    bit_length:
        Number of raw bits, 1..64.
    byte_order:
        ``"intel"`` or ``"motorola"``.
    signed:
        Two's-complement interpretation of the raw value.
    scale, offset:
        Linear mapping raw -> physical.
    value_table:
        Optional mapping of raw integer values to string labels
        (categorical signals). When set, decode returns the label and
        encode accepts either the label or the raw integer.
    """

    start_bit: int
    bit_length: int
    byte_order: str = INTEL
    signed: bool = False
    scale: float = 1.0
    offset: float = 0.0
    value_table: tuple = field(default_factory=tuple)  # ((raw, label), ...)

    def __post_init__(self):
        if not 1 <= self.bit_length <= 64:
            raise CodecError("bit_length must be in 1..64")
        if self.byte_order not in (INTEL, MOTOROLA):
            raise CodecError("byte_order must be 'intel' or 'motorola'")
        if self.start_bit < 0:
            raise CodecError("start_bit must be non-negative")
        if self.scale == 0:
            raise CodecError("scale must be non-zero")
        for name in ("scale", "offset"):
            if not math.isfinite(getattr(self, name)):
                raise CodecError(
                    "{} must be finite, got {!r}".format(
                        name, getattr(self, name)
                    )
                )

    @classmethod
    def from_bit_positions(cls, positions, byte_order=INTEL, **kwargs):
        """Build an encoding from explicit bit positions.

        *positions* lists absolute payload bit positions in significance
        order (least significant first), as :meth:`bit_positions`
        returns them. The DBC start bit is derived per byte order (LSB
        for Intel, MSB for Motorola) and the result is verified to walk
        exactly the given positions -- a gap or an order inconsistent
        with *byte_order* raises :class:`CodecError`.
        """
        positions = list(positions)
        if not positions:
            raise CodecError("positions must be non-empty")
        start_bit = positions[0] if byte_order == INTEL else positions[-1]
        encoding = cls(
            start_bit=start_bit,
            bit_length=len(positions),
            byte_order=byte_order,
            **kwargs
        )
        if encoding.bit_positions() != positions:
            raise CodecError(
                "bit positions {} are not a contiguous {} layout".format(
                    positions, byte_order
                )
            )
        return encoding

    # -- geometry ----------------------------------------------------------
    def bit_positions(self):
        """Absolute payload bit positions, least-significant first."""
        if self.byte_order == INTEL:
            return _intel_bit_positions(self.start_bit, self.bit_length)
        return _motorola_bit_positions(self.start_bit, self.bit_length)

    def byte_span(self):
        """(first_byte, last_byte) touched by this signal, inclusive."""
        first = self.start_bit // 8
        if self.byte_order == INTEL:
            return first, (self.start_bit + self.bit_length - 1) // 8
        # Motorola: the start bit is the MSB; the walk leaves the first
        # byte after ``start_bit % 8 + 1`` bits and then fills whole
        # bytes from bit 7 down.
        beyond = self.bit_length - self.start_bit % 8 - 1
        return first, first + max(0, -(-beyond // 8))

    def required_payload_length(self):
        """Minimum payload length in bytes to hold this signal."""
        return self.byte_span()[1] + 1

    # -- raw <-> bytes -------------------------------------------------------
    def extract_raw(self, payload):
        """Read the raw unsigned-or-signed integer from *payload*."""
        if len(payload) < self.required_payload_length():
            raise ShortPayloadError(
                "payload of {} bytes too short for signal spanning byte {}".format(
                    len(payload), self.byte_span()[1]
                )
            )
        raw = 0
        for significance, position in enumerate(self.bit_positions()):
            bit = (payload[position // 8] >> (position % 8)) & 1
            raw |= bit << significance
        if self.signed and raw >= 1 << (self.bit_length - 1):
            raw -= 1 << self.bit_length
        return raw

    def insert_raw(self, payload, raw):
        """Write a raw integer into *payload* (a bytearray), in place."""
        lo, hi = self._raw_bounds()
        if not lo <= raw <= hi:
            raise CodecError(
                "raw value {} out of range [{}, {}] for {}-bit signal".format(
                    raw, lo, hi, self.bit_length
                )
            )
        if raw < 0:
            raw += 1 << self.bit_length
        if len(payload) < self.required_payload_length():
            raise CodecError("payload too short for signal")
        for significance, position in enumerate(self.bit_positions()):
            byte_index, in_byte = position // 8, position % 8
            if (raw >> significance) & 1:
                payload[byte_index] |= 1 << in_byte
            else:
                payload[byte_index] &= ~(1 << in_byte) & 0xFF

    def _raw_bounds(self):
        if self.signed:
            half = 1 << (self.bit_length - 1)
            return -half, half - 1
        return 0, (1 << self.bit_length) - 1

    # -- compiled fast paths ---------------------------------------------------
    def compile_raw_extractor(self):
        """Build a closure equivalent to :meth:`extract_raw`.

        All spec-derived geometry is hoisted out of the per-payload
        path: both byte orders read their bits as one run of an
        ``int.from_bytes`` integer -- big-endian for Motorola, whose
        sawtooth is descending big-endian significance, so its shift
        counts from the payload's end.
        """
        length, signed = self.bit_length, self.signed
        mask, half, full = (1 << length) - 1, 1 << (length - 1), 1 << length
        required = self.required_payload_length()
        short = "payload of {{}} bytes too short for signal spanning " \
            "byte {}".format(required - 1)
        if self.byte_order == INTEL:
            order, stride, shift = "little", 0, self.start_bit
        else:
            order, stride = "big", 8
            shift = self.start_bit % 8 - 8 * (self.start_bit // 8) - length - 7

        def extract(payload):
            if len(payload) < required:
                raise ShortPayloadError(short.format(len(payload)))
            raw = (int.from_bytes(payload, order) >> (stride * len(payload)
                                                      + shift)) & mask
            if signed and raw >= half:
                raw -= full
            return raw

        return extract

    def compile_decoder(self):
        """Build a closure equivalent to :meth:`decode`.

        The value table, the linear mapping and the int-coercion
        decision are resolved once instead of per payload.
        """
        extract = self.compile_raw_extractor()
        table = dict(self.value_table)
        scale, offset = self.scale, self.offset
        integral = scale == int(scale) and offset == int(offset)

        def decode(payload):
            raw = extract(payload)
            if table:
                return table.get(raw, "raw_{}".format(raw))
            physical = raw * scale + offset
            if integral and float(physical).is_integer():
                return int(physical)
            return physical

        return decode

    def vector_decode(self):
        """The :class:`VectorDecode` under which :class:`VectorTable`
        yields what :meth:`decode` yields, in value and type -- or None
        where that cannot be promised: a nine-byte span, or a mapping
        Python computes with ints beyond what ``float64`` / ``int64``
        hold exactly."""
        first, last = self.byte_span()
        base = 0 if last < 8 else first
        if last - base >= 8:
            return None
        length = self.bit_length
        big_endian = self.byte_order == MOTOROLA
        if big_endian:
            # Descending big-endian significance, as the scalar form.
            shift = 8 * (7 - first + base) + self.start_bit % 8 - length + 1
        else:
            shift = self.start_bit - 8 * base
        scale, offset, integral = 1.0, 0.0, False
        if not self.value_table:
            scale, offset = self.scale, self.offset
            lo, hi = self._raw_bounds()
            if not (type(scale) is float and type(offset) is float):
                # Python multiplies and adds ints exactly; float64 agrees
                # only while every intermediate stays below 2**53.
                if not all(isinstance(x, (int, float))
                           for x in (scale, offset)):
                    return None
                if any(abs(r * scale) > 2 ** 53
                       or abs(r * scale + offset) > 2 ** 53 for r in (lo, hi)):
                    return None
                scale, offset = float(scale), float(offset)
            integral = scale == int(scale) and offset == int(offset)
            # The mapping is monotone, so the raw bounds bound every
            # value: all finite, and int64 where decode returns ints.
            limit = 2 ** 63 if integral else math.inf
            if any(not abs(float(r) * scale + offset) < limit
                   for r in (lo, hi)):
                return None
        return VectorDecode(big_endian, base, shift, (1 << length) - 1,
                            1 << (length - 1) if self.signed else 0, scale,
                            offset, integral, self.value_table)

    # -- physical <-> raw ------------------------------------------------------
    def decode(self, payload):
        """Payload bytes -> physical value (float, int or label)."""
        raw = self.extract_raw(payload)
        if self.value_table:
            table = dict(self.value_table)
            return table.get(raw, "raw_{}".format(raw))
        physical = raw * self.scale + self.offset
        if self.scale == int(self.scale) and self.offset == int(self.offset):
            return int(physical) if float(physical).is_integer() else physical
        return physical

    def encode(self, payload, value, clamp=False):
        """Physical value (or label for categorical) -> payload bits.

        With ``clamp=True`` out-of-range raw values saturate at the
        encoding bounds, the way ECUs transmit out-of-range physical
        values; otherwise they raise :class:`CodecError`.
        """
        if self.value_table:
            if isinstance(value, str):
                reverse = {label: raw for raw, label in self.value_table}
                if value not in reverse:
                    raise CodecError(
                        "label {!r} not in value table {}".format(
                            value, [l for _r, l in self.value_table]
                        )
                    )
                raw = reverse[value]
            else:
                raw = int(value)
        else:
            raw = int(round((value - self.offset) / self.scale))
        if clamp:
            lo, hi = self._raw_bounds()
            raw = min(max(raw, lo), hi)
        self.insert_raw(payload, raw)
        return payload

    def physical_bounds(self):
        """(min, max) physical values representable by this encoding."""
        lo, hi = self._raw_bounds()
        a = lo * self.scale + self.offset
        b = hi * self.scale + self.offset
        return (min(a, b), max(a, b))


def overlaps(encoding_a, encoding_b):
    """True if two encodings share any payload bit."""
    return bool(set(encoding_a.bit_positions()) & set(encoding_b.bit_positions()))
