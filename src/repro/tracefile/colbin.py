"""Columnar binary trace log format (mmap-able).

The record-major format of :mod:`repro.tracefile.binlog` must decode
every payload byte just to read a timestamp, so a preselection scan --
which only needs ``(t, b_id, m_id)`` -- pays the full decode cost of
the trace. This sibling format stores the same byte records
column-major in fixed-stride sections so a reader can ``mmap`` the file
and hand out zero-copy ``memoryview`` columns: scans touch only the
sections they name, and payload / ``m_info`` cells are materialized
per-index, only when asked for.

Layout (all little-endian, sections 8-byte aligned)::

    header:   8s magic | H version | Q record count | Q channel count
              | 9 x Q section offset table
    sections: 0 t            record count x d
              1 m_id         record count x Q
              2 channel idx  record count x H   (index into section 3)
              3 channel dict channel count x (H length + utf-8)
              4 payload offsets   (record count + 1) x Q
              5 payload blob      densely packed payload bytes
              6 m_info offsets    (record count + 1) x Q
              7 m_info blob       packed info tuples (binlog v1 codec)
    offset 8 is the end of section 7; every section is bounds-checked
    against its successor before a single struct unpack happens.

Channels are dictionary-encoded (automotive traces carry a handful of
bus names across millions of frames); ``m_info`` cells are packed and
decoded by the binlog v1 key/tag/value codec itself
(:func:`repro.tracefile.binlog.unpack_info`), so the two formats
round-trip identical record tuples -- float timestamps bit-exactly.

Malformed files (truncated or oversized sections, corrupt magic,
offsets out of order or out of bounds, bad channel indices) raise
:class:`ColumnarTraceError`, a :class:`~repro.engine.errors.PlanError`,
when the file is opened. What sits *inside* a cell is checked when the
cell is decoded: the engine moves ``m_info`` cells packed and decodes
one only for a rule with ``required_info`` or where rows land
(``records()``, ``collect()``), so a malformed TLV raises exactly where
its cell is read, and a run that never reads it yields the ``R_out`` of
the uncorrupted file.
"""

from __future__ import annotations

import mmap
import struct
from itertools import accumulate
from pathlib import Path

import numpy as np

from repro.engine.columnar import BytesColumn, DictColumn
from repro.engine.errors import PlanError
from repro.tracefile.binlog import (
    TRUNCATED,
    BinaryTraceError,
    PackedRecords,
    check_m_id,
    encode_text,
    pack_info as _pack_info,
    packed_partitions,
    unpack_info,
)

MAGIC = b"IVNCOLTR"
VERSION = 1

#: Number of entries in the header's section offset table: eight
#: section starts plus the end offset of the last section.
_NUM_OFFSETS = 9

_HEADER = struct.Struct("<8sHQQ" + "Q" * _NUM_OFFSETS)

_MAX_CHANNELS = 0xFFFF


class ColumnarTraceError(PlanError):
    """Raised for malformed columnar trace files."""


def _align(offset):
    return (offset + 7) & ~7


def _packed(code, values):
    values = list(values)
    return struct.pack("<{}{}".format(len(values), code), *values)


def _unpack_info(data):
    """Decode one packed info cell: binlog's codec, this format's error."""
    try:
        return unpack_info(bytes(data), 0)[0]
    except BinaryTraceError as exc:
        reason = str(exc)
        raise ColumnarTraceError(
            "truncated m_info entry" if reason == TRUNCATED else reason
        )


# -- writer --------------------------------------------------------------

def dump_records(records, path):
    """Write byte-record tuples to *path* column-major; returns count.

    A field the format cannot hold raises :class:`ColumnarTraceError`
    naming the record and the field, before *path* is opened.
    """
    records = list(records)
    count = len(records)
    channels, m_ids, infos = {}, [], []  # channel -> its UTF-8 name
    for number, (_t, _payload, b_id, m_id, m_info) in enumerate(records):
        try:
            m_ids.append(check_m_id(m_id))
            infos.append(_pack_info(m_info))
            if str(b_id) not in channels:
                channels[str(b_id)] = encode_text("channel", b_id, 0xFFFF)
        except BinaryTraceError as exc:
            raise ColumnarTraceError("record {}: {}".format(number, exc))
    if len(channels) > _MAX_CHANNELS + 1:
        raise ColumnarTraceError(
            "too many distinct channels (> {})".format(_MAX_CHANNELS + 1)
        )
    index = {channel: number for number, channel in enumerate(channels)}
    payloads = [bytes(record[1]) for record in records]
    sections = [
        _packed("d", [float(record[0]) for record in records]),
        _packed("Q", m_ids),
        _packed("H", [index[str(record[2])] for record in records]),
        b"".join(struct.pack("<H", len(name)) + name
                 for name in channels.values()),
        _packed("Q", accumulate(map(len, payloads), initial=0)),
        b"".join(payloads),
        _packed("Q", accumulate(map(len, infos), initial=0)),
        b"".join(infos),
    ]
    offsets = [_align(_HEADER.size)]
    for section in sections[:-1]:
        offsets.append(_align(offsets[-1] + len(section)))
    # The end offset is the true end of the last section, not its
    # aligned successor -- padding never counts as data.
    offsets.append(offsets[-1] + len(sections[-1]))

    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, VERSION, count, len(channels), *offsets))
        position = _HEADER.size
        for start, section in zip(offsets, sections):
            fh.write(b"\x00" * (start - position))
            fh.write(section)
            position = start + len(section)
    return count


# -- reader --------------------------------------------------------------

class ColumnarTraceReader:
    """Zero-copy column access over an mmap'ed columnar trace file.

    All header and section bounds are validated once, up front; after
    construction every accessor is a view slice, not a parse. The mmap
    stays open as long as the reader or any view it handed out does.
    """

    def __init__(self, path):
        self.path = Path(path)
        try:
            with open(self.path, "rb") as fh:
                try:
                    buffer = mmap.mmap(
                        fh.fileno(), 0, access=mmap.ACCESS_READ
                    )
                except ValueError:
                    # Zero-length files cannot be mapped; an empty
                    # buffer fails header validation below with the
                    # same structured error as any truncated file.
                    buffer = fh.read()
        except (FileNotFoundError, IsADirectoryError):
            # Not a defect of the format: every codec reports a missing
            # path as the plain OSError callers already handle.
            raise
        except OSError as exc:
            raise ColumnarTraceError(
                "cannot open columnar trace {!r}: {}".format(
                    str(self.path), exc
                )
            )
        view = memoryview(buffer)
        if len(view) < _HEADER.size:
            raise ColumnarTraceError(
                "truncated file: {} bytes is smaller than the {}-byte "
                "header".format(len(view), _HEADER.size)
            )
        fields = _HEADER.unpack_from(view, 0)
        magic, version, count, num_channels = fields[:4]
        offsets = fields[4:]
        if magic != MAGIC:
            raise ColumnarTraceError("bad magic {!r}".format(magic))
        if version != VERSION:
            raise ColumnarTraceError(
                "unsupported version {}".format(version)
            )
        if offsets[0] < _HEADER.size:
            raise ColumnarTraceError("section table overlaps header")
        for left, right in zip(offsets, offsets[1:]):
            if right < left:
                raise ColumnarTraceError("section offsets out of order")
        if offsets[-1] > len(view):
            raise ColumnarTraceError(
                "truncated file: sections end at {} but file has only "
                "{} bytes".format(offsets[-1], len(view))
            )
        self._count = count
        self._offsets = offsets
        self._view = view
        self.channels = self._parse_channels(num_channels)
        # t is 8-aligned, so its section has no padding to allow for.
        self._times = self._fixed_section(0, "d", count, exact=True)
        self._m_ids = self._fixed_section(1, "Q", count)
        self._channel_indices = self._fixed_section(2, "H", count)
        self._payload_offsets = self._fixed_section(4, "Q", count + 1)
        self._payload_blob = self._section(5)
        self._info_offsets = self._fixed_section(6, "Q", count + 1)
        self._info_blob = self._section(7)
        self._check_offset_plane(self._payload_offsets, self._payload_blob,
                                 "payload")
        self._check_offset_plane(self._info_offsets, self._info_blob,
                                 "m_info")
        beyond = np.flatnonzero(
            np.asarray(self._channel_indices) >= len(self.channels)
        )
        if len(beyond):
            raise ColumnarTraceError(
                "channel index {} out of range (dictionary has {} "
                "entries)".format(self._channel_indices[beyond[0]],
                                  len(self.channels))
            )

    def _section(self, number):
        return self._view[self._offsets[number] : self._offsets[number + 1]]

    def _fixed_section(self, number, fmt, expected, exact=False):
        raw = self._section(number)
        need = expected * struct.calcsize("<" + fmt)
        if len(raw) < need or exact and len(raw) != need:
            raise ColumnarTraceError(
                "section {} holds {} bytes, but the header's {} entries "
                "need {}".format(number, len(raw), expected, need)
            )
        return raw[:need].cast(fmt)

    def _parse_channels(self, num_channels):
        raw = self._section(3)
        channels = []
        position = 0
        for _unused in range(num_channels):
            if position + 2 > len(raw):
                raise ColumnarTraceError("truncated channel dictionary")
            (length,) = struct.unpack_from("<H", raw, position)
            position += 2
            if position + length > len(raw):
                raise ColumnarTraceError("truncated channel dictionary")
            try:
                channels.append(
                    str(raw[position : position + length], "utf-8")
                )
            except UnicodeDecodeError:
                raise ColumnarTraceError("channel name is not UTF-8")
            position += length
        return tuple(channels)

    def _check_offset_plane(self, offsets, blob, label):
        plane = np.asarray(offsets)
        if (plane[1:] < plane[:-1]).any():
            raise ColumnarTraceError(
                "{} offsets out of order".format(label)
            )
        if offsets[0] != 0 or offsets[-1] > len(blob):
            raise ColumnarTraceError(
                "{} offsets exceed their blob ({} > {})".format(
                    label, offsets[-1], len(blob)
                )
            )

    # -- columns (zero-copy where the layout allows) ----------------------
    def __len__(self):
        return self._count

    def times(self):
        """The ``t`` column as a ``memoryview('d')`` -- no decode."""
        return self._times

    def message_ids(self):
        """The ``m_id`` column as a ``memoryview('Q')`` -- no decode."""
        return self._m_ids

    def channel_indices(self):
        """Dictionary indices of the ``b_id`` column (``memoryview('H')``)."""
        return self._channel_indices

    def channel_column(self):
        """The ``b_id`` column as it is stored: a :class:`DictColumn` of
        the dictionary indices over the channel names -- no decode."""
        return DictColumn(self._channel_indices, self.channels)

    def payload_column(self):
        """The payload column as a lazily-materializing :class:`BytesColumn`."""
        return BytesColumn(self._payload_offsets, self._payload_blob)

    def info_column(self):
        """The ``m_info`` column: packed, decoded per cell on access."""
        return BytesColumn(
            self._info_offsets, self._info_blob, _unpack_info
        )

    # -- engine integration ------------------------------------------------
    def partitions(self, num_partitions):
        """Contiguous :class:`ColumnarPartition` blocks of sub-views: no
        copies, each partition stays backed by the mmap."""
        if num_partitions < 1:
            raise ColumnarTraceError("num_partitions must be positive")
        return packed_partitions(
            num_partitions, self._times, self.payload_column(),
            self.channel_column(), self._m_ids, self.info_column(),
        )


def load_records(path):
    """The byte records of *path*, packed: a
    :class:`~repro.tracefile.binlog.PackedRecords` over the reader's
    mmap'ed planes; an ``m_info`` cell is decoded where it is read."""
    return PackedRecords(ColumnarTraceReader(path).partitions(1)[0])


def dump_table(table, path):
    """Write a K_b engine table to *path* in time order."""
    return dump_records(table.sort(["t"]).collect(), path)


def load_table(context, path, num_partitions=None):
    """Load a columnar trace as a K_b table over mmap-backed partitions.

    The Source node holds :class:`ColumnarPartition` objects whose
    ``(t, b_id, m_id)`` columns are raw file views -- ``b_id`` a
    :class:`DictColumn` of the stored channel indices -- and nothing is
    decoded until a task reads (not merely moves) a payload or info
    cell.
    """
    from repro.protocols.frames import BYTE_RECORD_COLUMNS

    if num_partitions is None:
        num_partitions = context.default_parallelism
    reader = ColumnarTraceReader(path)
    return context.table_from_columnar(
        list(BYTE_RECORD_COLUMNS),
        reader.partitions(max(num_partitions, 1)),
    )
