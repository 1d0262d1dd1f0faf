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

Malformed files (truncated sections, corrupt magic, offsets out of
order or out of bounds, bad channel indices) raise
:class:`ColumnarTraceError`, a :class:`~repro.engine.errors.PlanError`
subclass -- never a bare ``struct.error`` -- when the file is opened,
before any cell is touched. What sits *inside* a cell is checked when
the cell is decoded and not before: the engine moves ``m_info`` cells
packed (filters, joins, ``cache()``) and decodes one only for a rule
with ``required_info`` or at a row-landing edge (``records()``,
``select()``, ``collect()`` of a table that still carries the column).
A malformed TLV inside a cell therefore raises
:class:`ColumnarTraceError` exactly where that cell is read, and a run
that never reads it yields the ``R_out`` of the uncorrupted file.
"""

from __future__ import annotations

import mmap
import struct
from pathlib import Path

from repro.engine.columnar import BytesColumn, ColumnarPartition
from repro.engine.errors import PlanError
from repro.tracefile.binlog import (
    TRUNCATED,
    BinaryTraceError,
    pack_info as _pack_info,
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
    """Write byte-record tuples to *path* column-major; returns count."""
    path = Path(path)
    records = list(records)
    count = len(records)

    times = bytearray()
    m_ids = bytearray()
    channel_index = {}
    channel_indices = bytearray()
    payload_offsets = bytearray(struct.pack("<Q", 0))
    payload_blob = bytearray()
    info_offsets = bytearray(struct.pack("<Q", 0))
    info_blob = bytearray()
    for t, payload, b_id, m_id, m_info in records:
        times += struct.pack("<d", float(t))
        m_ids += struct.pack("<Q", int(m_id))
        channel = str(b_id)
        index = channel_index.get(channel)
        if index is None:
            index = channel_index[channel] = len(channel_index)
            if index > _MAX_CHANNELS:
                raise ColumnarTraceError(
                    "too many distinct channels (> {})".format(
                        _MAX_CHANNELS + 1
                    )
                )
        channel_indices += struct.pack("<H", index)
        payload_blob += bytes(payload)
        payload_offsets += struct.pack("<Q", len(payload_blob))
        info_blob += _pack_info(m_info)
        info_offsets += struct.pack("<Q", len(info_blob))

    dictionary = bytearray()
    for channel in channel_index:
        data = channel.encode("utf-8")
        dictionary += struct.pack("<H", len(data))
        dictionary += data

    sections = [
        bytes(times),
        bytes(m_ids),
        bytes(channel_indices),
        bytes(dictionary),
        bytes(payload_offsets),
        bytes(payload_blob),
        bytes(info_offsets),
        bytes(info_blob),
    ]
    offsets = []
    cursor = _align(_HEADER.size)
    for section in sections:
        offsets.append(cursor)
        cursor += len(section)
        cursor = _align(cursor)
    # The end offset is the true end of the last section, not its
    # aligned successor -- padding never counts as data.
    offsets.append(offsets[-1] + len(sections[-1]))

    with open(path, "wb") as fh:
        fh.write(
            _HEADER.pack(MAGIC, VERSION, count, len(channel_index), *offsets)
        )
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
    construction every accessor is a view slice, not a parse. Keep the
    reader (or the views it handed out) alive while columns are in use
    -- the mmap stays open as long as any view references it.
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
        self._buffer = buffer
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
        self._times = self._fixed_section(0, "d", count)
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
        for index in self._channel_indices:
            if index >= len(self.channels):
                raise ColumnarTraceError(
                    "channel index {} out of range (dictionary has {} "
                    "entries)".format(index, len(self.channels))
                )

    def _section(self, number):
        return self._view[self._offsets[number] : self._offsets[number + 1]]

    def _fixed_section(self, number, fmt, expected):
        raw = self._section(number)
        itemsize = struct.calcsize("<" + fmt)
        need = expected * itemsize
        if len(raw) < need:
            raise ColumnarTraceError(
                "truncated section {}: expected {} bytes for {} "
                "entries, found {}".format(number, need, expected, len(raw))
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
        previous = 0
        for offset in offsets:
            if offset < previous:
                raise ColumnarTraceError(
                    "{} offsets out of order".format(label)
                )
            previous = offset
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
        """The ``b_id`` column as shared ``str`` objects."""
        channels = self.channels
        return [channels[i] for i in self._channel_indices]

    def payload_column(self):
        """The payload column as a lazily-materializing :class:`BytesColumn`."""
        return BytesColumn(self._payload_offsets, self._payload_blob)

    def info_column(self):
        """The ``m_info`` column: packed, decoded per cell on access."""
        return BytesColumn(
            self._info_offsets, self._info_blob, _unpack_info
        )

    # -- records ----------------------------------------------------------
    def record(self, index):
        """Materialize byte record *index* as a ``(t, l, b_id, m_id, m_info)``
        tuple (decoding exactly one payload and one info cell)."""
        if index < 0:
            index += self._count
        if not 0 <= index < self._count:
            raise IndexError("record index out of range")
        payload = bytes(
            self._payload_blob[
                self._payload_offsets[index] : self._payload_offsets[index + 1]
            ]
        )
        info = _unpack_info(
            self._info_blob[
                self._info_offsets[index] : self._info_offsets[index + 1]
            ]
        )
        return (
            self._times[index],
            payload,
            self.channels[self._channel_indices[index]],
            self._m_ids[index],
            info,
        )

    def select(self, indices):
        """Materialize the records at *indices*, in the given order.

        This is the preselection contract: a scan decides survival from
        the ``(m_id, b_id)`` views alone, then pays payload/info decode
        for the survivors only.
        """
        return [self.record(i) for i in indices]

    def records(self):
        return self.select(range(self._count))

    # -- engine integration ------------------------------------------------
    def partitions(self, num_partitions):
        """Slice the trace into contiguous :class:`ColumnarPartition` blocks.

        Fixed-stride columns and both offset planes are sliced as
        sub-views -- no copies; each partition stays backed by the mmap.
        """
        if num_partitions < 1:
            raise ColumnarTraceError("num_partitions must be positive")
        count = self._count
        base, extra = divmod(count, num_partitions)
        parts = []
        start = 0
        for i in range(num_partitions):
            size = base + (1 if i < extra else 0)
            end = start + size
            channels = self.channels
            columns = [
                self._times[start:end],
                BytesColumn(
                    self._payload_offsets[start : end + 1],
                    self._payload_blob,
                ),
                [channels[j] for j in self._channel_indices[start:end]],
                self._m_ids[start:end],
                BytesColumn(
                    self._info_offsets[start : end + 1],
                    self._info_blob,
                    _unpack_info,
                ),
            ]
            parts.append(ColumnarPartition(columns, size))
            start = end
        return parts

    def close(self):
        """Release the mapping once no exported column views remain."""
        self._view.release()
        if isinstance(self._buffer, mmap.mmap):
            try:
                self._buffer.close()
            except BufferError:
                # Column views are still alive; the map closes when
                # they are garbage-collected.
                pass

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.close()
        return False


def load_records(path):
    """Read byte-record tuples back from *path* (full materialization)."""
    reader = ColumnarTraceReader(path)
    return reader.records()


def dump_table(table, path):
    """Write a K_b engine table to *path* in time order."""
    return dump_records(table.sort(["t"]).collect(), path)


def load_table(context, path, num_partitions=None):
    """Load a columnar trace as a K_b table over mmap-backed partitions.

    The Source node holds :class:`ColumnarPartition` objects whose
    ``(t, m_id)`` columns are raw file views; nothing is decoded until
    a task reads (not merely moves) a payload or info cell.
    """
    from repro.protocols.frames import BYTE_RECORD_COLUMNS

    if num_partitions is None:
        num_partitions = context.default_parallelism
    reader = ColumnarTraceReader(path)
    return context.table_from_columnar(
        list(BYTE_RECORD_COLUMNS),
        reader.partitions(max(num_partitions, 1)),
    )
