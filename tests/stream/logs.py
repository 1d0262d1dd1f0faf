"""Reading and rewriting session logs from outside, as a tool that
tampers with one would: records are split by their length prefix, and a
rewritten head is framed again with valid checksums."""

from __future__ import annotations

import json
import struct
import zlib

_LENGTH = struct.Struct("<I")
_FRAME = 12  # body length, body CRC, CRC of those two


def frame(body):
    """One log record holding *body*, checksums included."""
    prefix = _LENGTH.pack(len(body)) + _LENGTH.pack(zlib.crc32(body))
    return prefix + _LENGTH.pack(zlib.crc32(prefix)) + body


def record_spans(data):
    """``(start, end)`` of every whole record of a log's bytes."""
    spans, pos = [], 0
    while pos + _FRAME <= len(data):
        end = pos + _FRAME + _LENGTH.unpack_from(data, pos)[0]
        spans.append((pos, end))
        pos = end
    return spans


def head_body(head, sections=b""):
    """A record body of the JSON *head* followed by *sections*."""
    text = json.dumps(head, sort_keys=True, separators=(",", ":")).encode()
    return _LENGTH.pack(len(text)) + text + sections


def rewrite_heads(path, edit):
    """Apply ``edit(head)`` to the head of every record of the log at
    *path* and write it back with valid checksums."""
    data = path.read_bytes()
    records = []
    for start, end in record_spans(data):
        body = data[start + _FRAME : end]
        size = _LENGTH.unpack_from(body)[0]
        head = json.loads(body[_LENGTH.size : _LENGTH.size + size])
        edit(head)
        records.append(frame(head_body(head, body[_LENGTH.size + size :])))
    path.write_bytes(b"".join(records))
