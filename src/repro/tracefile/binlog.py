"""Binary trace log format (BLF-style).

A compact binary container for raw traces ``K_b``, modelled on the
binary logging formats automotive loggers produce (e.g. Vector BLF):
a magic header, a record count and densely packed records. Unlike the
ASCII format it preserves float timestamps bit-exactly by construction.

Layout (all little-endian)::

    header:  8s magic | H version | Q record count
    record:  d t | B len(b_id) | b_id utf-8 | Q m_id
             | H len(payload) | payload
             | B num info entries
    info:    B len(key) | key utf-8 | B tag | value
    value:   tag 0 bool -> B; tag 1 int -> q; tag 2 float -> d;
             tag 3 str  -> H length + utf-8
"""

from __future__ import annotations

import struct
from pathlib import Path

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
_INT = struct.Struct("<q")
_FLOAT = struct.Struct("<d")
_STR_LENGTH = struct.Struct("<H")

#: What a field that runs past the end of the data raises.
TRUNCATED = "truncated file"


def pack_info(m_info):
    """Encode one info tuple: B entry count, then the entries."""
    parts = [struct.pack("<B", len(m_info))]
    for key, value in m_info:
        key_data = str(key).encode("utf-8")
        parts.append(struct.pack("<B", len(key_data)))
        parts.append(key_data)
        if isinstance(value, bool):
            parts.append(struct.pack("<BB", _TAG_BOOL, int(value)))
        elif isinstance(value, int):
            parts.append(struct.pack("<Bq", _TAG_INT, value))
        elif isinstance(value, float):
            parts.append(struct.pack("<Bd", _TAG_FLOAT, value))
        else:
            data = str(value).encode("utf-8")
            parts.append(struct.pack("<BH", _TAG_STR, len(data)) + data)
    return b"".join(parts)


def _text(data, start, end):
    try:
        return data[start:end].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise BinaryTraceError(
            "text field is not UTF-8 ({})".format(exc.reason)
        )


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
    for _unused in range(count):
        # key length, key bytes and the value tag that follows them
        if pos + 1 > size:
            raise BinaryTraceError(TRUNCATED)
        end = pos + 1 + data[pos]
        if end + 1 > size:
            raise BinaryTraceError(TRUNCATED)
        key = _text(data, pos + 1, end)
        tag = data[end]
        pos = end + 1
        if tag == _TAG_STR:
            if pos + 2 > size:
                raise BinaryTraceError(TRUNCATED)
            end = pos + 2 + _STR_LENGTH.unpack_from(data, pos)[0]
            if end > size:
                raise BinaryTraceError(TRUNCATED)
            value = _text(data, pos + 2, end)
        elif tag == _TAG_INT or tag == _TAG_FLOAT:
            end = pos + 8
            if end > size:
                raise BinaryTraceError(TRUNCATED)
            codec = _INT if tag == _TAG_INT else _FLOAT
            value = codec.unpack_from(data, pos)[0]
        elif tag == _TAG_BOOL:
            end = pos + 1
            if end > size:
                raise BinaryTraceError(TRUNCATED)
            value = bool(data[pos])
        else:
            raise BinaryTraceError("unknown value tag {}".format(tag))
        pos = end
        info.append((key, value))
    return tuple(info), pos


def dump_records(records, path):
    """Write byte-record tuples to *path*; returns the record count."""
    path = Path(path)
    records = list(records)
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, VERSION, len(records)))
        for t, payload, b_id, m_id, m_info in records:
            channel = str(b_id).encode("utf-8")
            fh.write(_RECORD_HEAD.pack(float(t), len(channel)))
            fh.write(channel)
            fh.write(_RECORD_BODY.pack(int(m_id), len(payload)))
            fh.write(bytes(payload))
            fh.write(pack_info(m_info))
    return len(records)


def load_records(path):
    """Read byte-record tuples back from *path*."""
    with open(Path(path), "rb") as fh:
        data = fh.read()
    size = len(data)
    if size < _HEADER.size:
        raise BinaryTraceError(TRUNCATED)
    magic, version, count = _HEADER.unpack_from(data, 0)
    if magic != MAGIC:
        raise BinaryTraceError("bad magic {!r}".format(magic))
    if version != VERSION:
        raise BinaryTraceError("unsupported version {}".format(version))
    pos = _HEADER.size
    records = []
    for _unused in range(count):
        channel_start = pos + _RECORD_HEAD.size
        if channel_start > size:
            raise BinaryTraceError(TRUNCATED)
        t, channel_length = _RECORD_HEAD.unpack_from(data, pos)
        pos = channel_start + channel_length
        payload_start = pos + _RECORD_BODY.size
        if payload_start > size:
            raise BinaryTraceError(TRUNCATED)
        b_id = _text(data, channel_start, pos)
        m_id, payload_length = _RECORD_BODY.unpack_from(data, pos)
        pos = payload_start + payload_length
        if pos > size:
            raise BinaryTraceError(TRUNCATED)
        info, end = unpack_info(data, pos)
        records.append((t, data[payload_start:pos], b_id, m_id, info))
        pos = end
    return records


def dump_table(table, path):
    """Write a K_b engine table to *path* in time order."""
    return dump_records(table.sort(["t"]).collect(), path)


def load_table(context, path, num_partitions=None):
    """Load a binary trace into a K_b engine table."""
    from repro.protocols.frames import BYTE_RECORD_COLUMNS

    return context.table_from_rows(
        list(BYTE_RECORD_COLUMNS),
        load_records(path),
        num_partitions=num_partitions,
    )
