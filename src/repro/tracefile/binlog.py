"""Binary trace log format (BLF-style).

A compact binary container for raw traces ``K_b``, modelled on the
binary logging formats automotive loggers produce (e.g. Vector BLF):
a magic header, a record count and densely packed records. Unlike the
ASCII format it preserves float timestamps bit-exactly by construction.

Layout (all little-endian); the last record ends where the file does::

    header:  8s magic | H version | Q record count
    record:  d t | B len(b_id) | b_id utf-8 | Q m_id
             | H len(payload) | payload
             | B num info entries
    info:    B len(key) | key utf-8 | B tag | value
    value:   tag 0 bool -> B; tag 1 int -> q; tag 2 float -> d;
             tag 3 str  -> H length + utf-8

A record's *layout* is its channel, ``m_id``, payload length and
``m_info`` shape (entry count, key bytes, tags, string lengths); IVN
traces repeat a few. :func:`_scan` keys layouts by the header bytes
``data[pos + 8 : pos + 19 + len(b_id)]`` and compiles a repeating one
into a mask of the ``m_info`` cell's structural bytes (all but the
values). A record that fits in the file and whose masked cell equals
the layout's is a *hit*, framed by the layout's offsets; any other is
walked (:func:`_walk`). A hit is exact: the framing checks a walk makes
-- which bounds, which tags -- depend only on the header key, the
structural bytes and the file length, all three as in the record the
layout was compiled from. The channel is decoded and coded once per
layout.

Compiles follow the input: a key compiles when two of its walked
records in a row have the same length, once more at most after its
layout changed, and the scan at most twice plus once per 64 records and
once per four hits (a compile costs about a walk, four hits save as
much).
After 64 walked records in a row, one in 64 is looked up until one hits.

Both loaders build ``.ctrc``'s columns from one scan, which checks the
framing at open -- lengths, bounds, tags, channel UTF-8, no bytes past
the last record -- as an unknown tag leaves a record's end unknown; the
UTF-8 of keys and string values is checked where a cell is read, as for
``.ctrc``. :func:`load_table` hands the columns to the engine,
:func:`load_records` wraps them as :class:`PackedRecords`.
"""

from __future__ import annotations

import struct
from array import array
from collections.abc import Sequence
from operator import eq
from pathlib import Path

import numpy as np

from repro.engine.columnar import (
    BytesColumn,
    ColumnarPartition,
    DictColumn,
    code_array,
)
from repro.engine.operations import split_evenly

MAGIC = b"IVNTRACE"
VERSION = 1

_TAG_BOOL = 0
_TAG_INT = 1
_TAG_FLOAT = 2
_TAG_STR = 3


class BinaryTraceError(ValueError):
    """Raised for malformed binary trace files."""


_HEADER = struct.Struct("<8sHQ")
_RECORD_HEAD = struct.Struct("<dB")  # t | len(b_id)
_RECORD_BODY = struct.Struct("<QH")  # m_id | len(payload)
_FLOAT = struct.Struct("<d")
_STR_LENGTH = struct.Struct("<H")

#: Fixed-size value codecs; ``?`` reads any nonzero byte as ``True``.
_VALUES = {_TAG_BOOL: struct.Struct("<?"), _TAG_INT: struct.Struct("<q"),
           _TAG_FLOAT: _FLOAT}

#: What a field that runs past the end of the data raises.
TRUNCATED = "truncated file"


def _check(fits, what, *args):
    if not fits:
        raise BinaryTraceError(what.format(*args))


def encode_text(field, text, limit):
    """UTF-8 of *text*; :class:`BinaryTraceError` if over *limit* bytes."""
    data = str(text).encode("utf-8")
    _check(len(data) <= limit, "{} is {} bytes, more than {}", field,
           len(data), limit)
    return data


def check_m_id(m_id):
    """*m_id* as an ``int``; :class:`BinaryTraceError` outside uint64."""
    value = int(m_id)
    _check(0 <= value < 2 ** 64, "m_id {} is outside [0, 2**64)", value)
    return value


def pack_info(m_info):
    """Encode one info tuple: B entry count, then the entries.

    A field its codec cannot hold raises :class:`BinaryTraceError`.
    """
    _check(len(m_info) <= 0xFF, "m_info has {} entries, more than 255",
           len(m_info))
    parts = [struct.pack("<B", len(m_info))]
    for key, value in m_info:
        key_data = encode_text("m_info key", key, 0xFF)
        parts += (struct.pack("<B", len(key_data)), key_data)
        if isinstance(value, bool):
            parts.append(struct.pack("<BB", _TAG_BOOL, int(value)))
        elif isinstance(value, int):
            _check(-(2 ** 63) <= value < 2 ** 63,
                   "m_info {!r} = {} is outside int64", key, value)
            parts.append(struct.pack("<Bq", _TAG_INT, value))
        elif isinstance(value, float):
            parts.append(struct.pack("<Bd", _TAG_FLOAT, value))
        else:
            data = encode_text("m_info {!r}".format(key), value, 0xFFFF)
            parts.append(struct.pack("<BH", _TAG_STR, len(data)) + data)
    return b"".join(parts)


def _not_utf8(exc):
    return BinaryTraceError("text field is not UTF-8 ({})".format(exc.reason))


def _text(raw):
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise _not_utf8(exc)


def unpack_info(data, pos):
    """Decode the info tuple that starts at ``data[pos]``.

    *data* is ``bytes``; returns ``(info, end)`` with *end* one past the
    tuple's last byte. Every field is bounds-checked against
    ``len(data)`` before it is read.
    """
    size = len(data)
    if pos + 1 > size:
        raise BinaryTraceError(TRUNCATED)
    count = data[pos]
    pos += 1
    info = []
    try:
        for _unused in range(count):
            # key length, key bytes and the value tag that follows them
            if pos + 1 > size:
                raise BinaryTraceError(TRUNCATED)
            end = pos + 1 + data[pos]
            if end + 1 > size:
                raise BinaryTraceError(TRUNCATED)
            key = data[pos + 1 : end].decode("utf-8")
            tag = data[end]
            pos = end + 1
            if tag == _TAG_STR:
                if pos + 2 > size:
                    raise BinaryTraceError(TRUNCATED)
                end = pos + 2 + _STR_LENGTH.unpack_from(data, pos)[0]
                if end > size:
                    raise BinaryTraceError(TRUNCATED)
                value = data[pos + 2 : end].decode("utf-8")
            elif tag == _TAG_INT or tag == _TAG_FLOAT:
                end = pos + 8
                if end > size:
                    raise BinaryTraceError(TRUNCATED)
                value = _VALUES[tag].unpack_from(data, pos)[0]
            elif tag == _TAG_BOOL:
                end = pos + 1
                if end > size:
                    raise BinaryTraceError(TRUNCATED)
                value = bool(data[pos])
            else:
                raise BinaryTraceError("unknown value tag {}".format(tag))
            pos = end
            info.append((key, value))
    except UnicodeDecodeError as exc:
        # The first text that fails, in field order, as the format's error.
        raise _not_utf8(exc)
    return tuple(info), pos


def _unpack_cell(data):
    """Decode one packed ``m_info`` cell of a :func:`load_table` plane."""
    return unpack_info(bytes(data), 0)[0]


def dump_records(records, path):
    """Write byte-record tuples to *path*; returns the record count.

    A field the format cannot hold raises :class:`BinaryTraceError`
    naming the record and the field, before *path* is opened.
    """
    records = list(records)
    body = [_HEADER.pack(MAGIC, VERSION, len(records))]
    for index, (t, payload, b_id, m_id, m_info) in enumerate(records):
        try:
            channel = encode_text("channel", b_id, 0xFF)
            payload = bytes(payload)
            _check(len(payload) <= 0xFFFF,
                   "payload is {} bytes, more than 65535", len(payload))
            body += (_RECORD_HEAD.pack(float(t), len(channel)), channel,
                     _RECORD_BODY.pack(check_m_id(m_id), len(payload)),
                     payload, pack_info(m_info))
        except BinaryTraceError as exc:
            raise BinaryTraceError("record {}: {}".format(index, exc))
    Path(path).write_bytes(b"".join(body))
    return len(records)


class _Layout:
    """A record's layout as :func:`_walk` found it (offsets relative to
    the record); :meth:`compile` makes its mask usable."""

    __slots__ = ("size", "payload_at", "info_at", "b_id", "channel", "m_id",
                 "mask", "want")

    def compile(self, data, pos):
        self.mask = int.from_bytes(b"".join(self.mask), "little")
        self.want = self.mask & int.from_bytes(
            data[pos + self.info_at : pos + self.size], "little"
        )
        return self


def _walk(data, pos, size):
    """The general walk of the record at ``data[pos]``: every framing
    check, the channel decoded; returns ``(layout, end)``."""
    t, channel_length = _RECORD_HEAD.unpack_from(data, pos)
    body = pos + 9 + channel_length
    if body + 10 > size:
        raise BinaryTraceError(TRUNCATED)
    try:
        b_id = data[pos + 9 : body].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise _not_utf8(exc)
    m_id, length = _RECORD_BODY.unpack_from(data, body)
    info = body + 10 + length
    if info + 1 > size:
        raise BinaryTraceError(TRUNCATED)
    layout = _Layout()
    layout.b_id, layout.m_id = b_id, m_id
    layout.payload_at, layout.info_at = body + 10 - pos, info - pos
    layout.mask = []
    structure = info  # where the structural bytes before a value start
    cursor = info + 1
    for _unused in range(data[info]):
        if cursor + 1 > size:
            raise BinaryTraceError(TRUNCATED)
        start = cursor + 2 + data[cursor]  # past the key and its tag
        if start > size:
            raise BinaryTraceError(TRUNCATED)
        tag = data[start - 1]
        if tag == _TAG_STR:
            if start + 2 > size:
                raise BinaryTraceError(TRUNCATED)
            start += 2
            end = start + _STR_LENGTH.unpack_from(data, start - 2)[0]
        elif tag in _VALUES:
            end = start + _VALUES[tag].size
        else:
            raise BinaryTraceError("unknown value tag {}".format(tag))
        if end > size:
            raise BinaryTraceError(TRUNCATED)
        layout.mask += (b"\xff" * (start - structure), bytes(end - start))
        structure = cursor = end
    layout.mask.append(b"\xff" * (cursor - structure))
    layout.size = cursor - pos
    return layout, cursor


def _scan(data):
    """Check the framing of *data*; return its records as ``.ctrc``'s
    columns: ``t`` as ``array('d')``, a payload plane, the channels as a
    :class:`DictColumn` (each layout's code, appended as a hit or walk
    finds it), ``m_id`` as ``array('Q')`` and a packed ``m_info``
    plane."""
    size = len(data)
    if size < _HEADER.size:
        raise BinaryTraceError(TRUNCATED)
    magic, version, count = _HEADER.unpack_from(data, 0)
    if magic != MAGIC:
        raise BinaryTraceError("bad magic {!r}".format(magic))
    if version != VERSION:
        raise BinaryTraceError("unsupported version {}".format(version))
    starts, m_ids, codes = array("q"), array("Q"), array("I")
    channels, payloads, infos = {}, [], []  # channel -> its code
    add_start, add_code, add_m_id, add_payload, add_info = (
        starts.append, codes.append, m_ids.append, payloads.append,
        infos.append,
    )
    layouts = {}  # key -> (its compiled layout, info_at, size, mask, want)
    lengths = {}  # key -> length of its last walked record
    settled = set()  # keys compiled twice: they compile no more
    compiles = hits = streak = 0  # streak: walked records since a hit
    pos = _HEADER.size
    for index in range(count):
        if pos + 9 > size:
            raise BinaryTraceError(TRUNCATED)
        layout = key = None
        if streak < 64 or not index % 64:  # else lookups have not paid
            key = data[pos + 8 : pos + 19 + data[pos + 8]]
            compiled = layouts.get(key)
            if compiled is not None:
                layout, info_at, length, mask, want = compiled
                end = pos + length
                cell = data[pos + info_at : end]
                if end <= size and want == mask & int.from_bytes(cell,
                                                                 "little"):
                    hits += 1
                    streak = 0
                else:
                    if key in settled:
                        del layouts[key]
                    layout = None
        if layout is None:
            layout, end = _walk(data, pos, size)
            layout.channel = channels.setdefault(layout.b_id, len(channels))
            cell = data[pos + layout.info_at : end]
            streak += 1
            if key is not None:
                if lengths.get(key) != end - pos:
                    lengths[key] = end - pos
                elif key not in settled and \
                        compiles <= 1 + index // 64 + hits // 4:
                    if key in layouts:
                        settled.add(key)
                    layout.compile(data, pos)
                    layouts[key] = (layout, layout.info_at, layout.size,
                                    layout.mask, layout.want)
                    compiles += 1
        add_start(pos)
        add_code(layout.channel)
        add_m_id(layout.m_id)
        add_payload(data[pos + layout.payload_at : pos + layout.info_at])
        add_info(cell)
        pos = end
    if pos != size:
        raise BinaryTraceError(
            "the header's {} records end at byte {}, but the file has {} "
            "bytes".format(count, pos, size)
        )
    times = np.frombuffer(data, np.uint8)[
        np.frombuffer(starts, np.int64)[:, None] + np.arange(8)
    ]
    return [array("d", times.view("<f8").astype(np.float64).tobytes()),
            BytesColumn.from_values(payloads),
            DictColumn(code_array(np.frombuffer(codes, np.uint32),
                                  len(channels)), tuple(channels)),
            m_ids, BytesColumn.from_values(infos, _unpack_cell)]


class PackedRecords(Sequence):
    """Byte-record tuples held as the columns of one
    :class:`ColumnarPartition` -- ``t``, the payload plane, channels,
    ``m_id`` and the packed ``m_info`` plane -- read-only. A tuple is
    built where one is indexed or iterated, and its ``m_info`` cell is
    decoded then; slicing moves columns. Equal to a list or tuple of the
    same records."""

    __slots__ = ("partition",)

    def __init__(self, partition):
        self.partition = partition

    def __len__(self):
        return len(self.partition)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return PackedRecords(
                self.partition.gather(range(len(self))[index])
            )
        return tuple(column[index] for column in self.partition.columns)

    def __iter__(self):
        return zip(*self.partition.columns)

    def __eq__(self, other):
        if isinstance(other, (list, tuple, PackedRecords)):
            return len(self) == len(other) and all(map(eq, self, other))
        return NotImplemented

    __hash__ = None


def load_records(path):
    """The byte records of *path*, packed (:class:`PackedRecords`): the
    framing is checked here, an ``m_info`` cell where it is read."""
    columns = _scan(Path(path).read_bytes())
    return PackedRecords(ColumnarPartition(columns, len(columns[0])))


def dump_table(table, path):
    """Write a K_b engine table to *path* in time order."""
    return dump_records(table.sort(["t"]).collect(), path)


def packed_partitions(num_partitions, times, payloads, channels, m_ids,
                      infos):
    """Whole-trace columns, the packed planes *payloads* and *infos*
    included, as contiguous :class:`ColumnarPartition` blocks split as
    :func:`~repro.engine.operations.split_evenly` splits rows."""
    return [
        ColumnarPartition([
            times[rows.start : rows.stop],
            BytesColumn(payloads.offsets[rows.start : rows.stop + 1],
                        payloads.blob),
            channels[rows.start : rows.stop],
            m_ids[rows.start : rows.stop],
            BytesColumn(infos.offsets[rows.start : rows.stop + 1],
                        infos.blob, infos.decode),
        ], len(rows))
        for rows in split_evenly(range(len(times)), max(num_partitions, 1))
    ]


def load_table(context, path, num_partitions=None):
    """Load a binary trace as a K_b table over partitions of
    :func:`_scan`, split as :func:`packed_partitions` splits them."""
    from repro.protocols.frames import BYTE_RECORD_COLUMNS

    if num_partitions is None:
        num_partitions = context.default_parallelism
    return context.table_from_columnar(
        list(BYTE_RECORD_COLUMNS),
        packed_partitions(
            num_partitions, *_scan(Path(path).read_bytes())
        ),
    )
