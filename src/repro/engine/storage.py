"""On-disk table storage: the sink of Table 6's "interpretation followed
by writing the results to the database".

A table is one file, ``<name>.tbl`` (:func:`pack_file`): a fixed head,
a CRC'd JSON manifest tagged ``"format": "repro.table/3"`` and one
8-byte aligned section per partition. A section (:func:`encode_partition`)
is a header (row count, column names and layouts, plane lengths),
8-byte aligned planes and a CRC32 of all before it. Each column is
stored in its :func:`~repro.engine.columnar._build_column` layout (a
:class:`~repro.engine.columnar.ValueColumn` names it from its planes):
float64 or int64 values, a bytes plane (offsets and blob), a str
dictionary (the values present, sorted, and a code per row) or, for
bool, None, ``TRUNCATED``, ints beyond 64 bits and mixed columns, a
bytes plane of tagged cells decoded per cell when read. A read runs no
stored code, checks every CRC, plane and header and hands the engine
views of one ``read()`` of the file. The stream checkpoint log and the
fleet job checkpoints write with this codec and
:func:`atomic_write_bytes` too.
"""

from __future__ import annotations

import json
import os
import shutil
import struct
import zlib
from array import array
from pathlib import Path

import numpy as np

from repro.engine.columnar import (
    BytesColumn,
    ColumnarPartition,
    FLOAT,
    INT,
    DictColumn,
    ValueColumn,
    _build_column,
    _typecode,
    code_array,
)
from repro.engine.errors import ExecutionError
from repro.sentinels import TRUNCATED

_FORMAT = "repro.table/3"
_SUFFIX = ".tbl"
_FILE = struct.Struct("<8sII")  # magic, manifest length, manifest CRC32
_FILE_MAGIC = b"REPROFIL"
_HEAD = struct.Struct("<8sHQH")  # magic, version, rows, columns
_MAGIC, _VERSION = b"REPROTBL", 1
_CRC = struct.Struct("<I")
_F64 = struct.Struct("<d")

# Column layouts and the number of planes each is stored as.
_FLOAT, _INT, _BYTES, _STR, _TAGGED = range(5)
_PLANES = (1, 1, 2, 3, 2)

# Tags of the cells that are a tag alone.
_MARKERS = {b"N": None, b"F": False, b"T": True, b"X": TRUNCATED}


class _Unholdable(Exception):
    """A cell of a type the format cannot hold, at *row*."""


class _Corrupt(ExecutionError):
    """A defect of a stored file or of one of its sections."""


def _check_name(name):
    if not isinstance(name, str) or not name or name.startswith(".") or any(
        sep and sep in name for sep in ("/", "\0", os.sep, os.altsep)
    ):
        raise ExecutionError("invalid table name {!r}: a table name is "
                             "non-empty, does not start with '.' and holds "
                             "no path separator".format(name))
    return name


def _counts(values):
    """Whether *values* is a list of non-negative ints."""
    return isinstance(values, list) and all(
        type(value) is int and value >= 0 for value in values
    )


def _utf8(text):
    return text.encode("utf-8", "surrogatepass")


def _text(raw):
    try:
        return str(raw, "utf-8", "surrogatepass")
    except UnicodeDecodeError:
        raise _Corrupt("a stored str is not UTF-8")


# -- writer --------------------------------------------------------------

def _aligned(head, blobs):
    """*head*, then each of *blobs* 8-byte aligned after zero padding."""
    pieces, end = [head], len(head)
    for blob in blobs:
        pieces += (bytes(-end % 8), blob)
        end += -end % 8 + len(blob)
    return b"".join(pieces)


def _varying(cells):
    """The offsets and blob planes of byte strings."""
    column = BytesColumn.from_values(cells)
    return [column.offsets.tobytes(), column.blob]


def _cell(row, value):
    """One cell of a tagged column: a tag byte and the value's bytes."""
    kind = type(value)
    if kind is float:
        return b"d" + _F64.pack(value)
    if kind is int:
        size = value.bit_length() // 8 + 1
        return b"i" + value.to_bytes(size, "little", signed=True)
    if kind is str:
        return b"s" + _utf8(value)
    if kind is bytes:
        return b"b" + value
    for tag, marker in _MARKERS.items():
        if value is marker:
            return tag
    raise _Unholdable(row)


def _uncell(raw):
    """The value of one tagged cell: the tagged plane's decode hook."""
    tag, data = bytes(raw[:1]), bytes(raw[1:])
    if tag == b"d" and len(data) == 8:
        return _F64.unpack(data)[0]
    if tag == b"i" and data:
        return int.from_bytes(data, "little", signed=True)
    if tag == b"s":
        return _text(data)
    if tag == b"b":
        return data
    if tag in _MARKERS and not data:
        return _MARKERS[tag]
    raise _Corrupt("a stored tagged cell is corrupt")


def _encode_str(column):
    """The str planes of a :class:`DictColumn`, its dictionary cut to the
    values present and sorted, so equal columns encode equally."""
    values = column.values
    codes = np.asarray(column.codes)
    order = [0]
    if len(values) != 1 and len(codes) and (codes == codes[0]).all():
        order = [int(codes[0])]  # one value: no bincount, sort or renumber
    elif len(values) != 1:
        present = np.flatnonzero(np.bincount(codes, minlength=len(values)))
        order = sorted(present.tolist(), key=values.__getitem__)
    if len(order) == 1:
        plane = bytes(len(codes))
    else:
        renumber = np.empty(len(values), np.intp)
        renumber[order] = np.arange(len(order))
        typecode = code_array((), len(order)).typecode
        plane = renumber[codes].astype(typecode).tobytes()
    return _varying([_utf8(values[code]) for code in order]) + [plane]


def _encode_column(column):
    """``(layout, planes)`` of one column."""
    if isinstance(column, (array, memoryview)) and _typecode(column) == "Q":
        values = np.frombuffer(column, np.uint64)
        if not len(values) or values.max() < 2 ** 63:
            return _INT, [values.astype(np.int64).tobytes()]
    if isinstance(column, (array, memoryview)) and \
            _typecode(column) in ("d", "q"):
        return (_FLOAT if _typecode(column) == "d" else _INT), [
            column.tobytes()
        ]
    if isinstance(column, DictColumn) and {*map(type, column.values)} <= {str}:
        return _STR, _encode_str(column)
    if isinstance(column, BytesColumn) and (planes := column.rebased()):
        return _BYTES, list(planes)
    if isinstance(column, ValueColumn):
        # A float or int column is one copy of x, as float64 or int64.
        if column.kind() == FLOAT:
            x = np.ascontiguousarray(column.x)
            return _FLOAT, [memoryview(x).cast("B")]
        if column.kind() == INT:
            return _INT, [memoryview(column.x.astype(np.int64)).cast("B")]
        return _encode_column(column.plane())
    built = _build_column(column if isinstance(column, list) else list(column))
    if isinstance(built, list):
        return _TAGGED, _varying(list(map(_cell, range(len(built)), built)))
    return _encode_column(built)


def names_block(names):
    """The header's column names: each length-prefixed UTF-8."""
    return b"".join(
        struct.pack("<H", len(text)) + text for text in map(_utf8, names)
    )


def encode_partition(where, names, block, partition):
    """The bytes of one partition file; *block* is the
    :func:`names_block` of *names*, *where* names the table and
    partition in an error."""
    if not isinstance(partition, ColumnarPartition):
        partition = ColumnarPartition.from_rows(list(partition), len(names))
    layouts, planes = bytearray(), []
    for name, column in zip(names, partition.columns):
        try:
            layout, column_planes = _encode_column(column)
        except _Unholdable as exc:
            (row,) = exc.args
            raise ExecutionError(
                "cannot store {}: column {!r} holds a {} at row {}, which a "
                "stored table cannot hold".format(
                    where, name, type(column[row]).__name__, row
                )
            )
        layouts.append(layout)
        planes += column_planes
    data = _aligned(
        _HEAD.pack(_MAGIC, _VERSION, len(partition), len(names)) + block
        + bytes(layouts) + array("Q", map(len, planes)).tobytes(), planes
    )
    return data + _CRC.pack(zlib.crc32(data))


# -- reader --------------------------------------------------------------

def _cut(view, position, lengths, what):
    """The views :func:`_aligned` laid out from *position* in *view*."""
    pieces = []
    for length in lengths:
        start = position + -position % 8
        if any(view[position:start]):
            raise _Corrupt("nonzero padding before its {}".format(what))
        pieces.append(view[start : start + length])
        position = start + length
    if position != len(view):
        raise _Corrupt("its {} do not end where the file does".format(what))
    return pieces


def _fixed(raw, count, typecode):
    if len(raw) != count * struct.calcsize(typecode):
        raise _Corrupt("a plane does not hold {} values".format(count))
    return raw.cast(typecode)


def _packed(offsets, blob, count, decode=bytes):
    """A :class:`BytesColumn` of *count* cells, its offsets checked."""
    offsets = _fixed(offsets, count + 1, "Q")
    if offsets[0] != 0 or offsets[-1] != len(blob) or (
        sorted(offsets) != offsets.tolist()
    ):
        raise _Corrupt("offsets do not cover their blob in order")
    return BytesColumn(offsets, blob, decode)


def _decode_column(layout, planes, rows):
    if layout in (_FLOAT, _INT):
        return _fixed(planes[0], rows, "d" if layout == _FLOAT else "q")
    if layout == _STR:
        offsets, blob, codes = planes
        count = len(offsets) // 8 - 1
        values = tuple(map(_text, _packed(offsets, blob, count)))
        if any(a >= b for a, b in zip(values, values[1:])):
            raise _Corrupt("a str dictionary is out of order")
        typecode = code_array((), count).typecode
        codes = _fixed(codes, rows, typecode)
        if rows and np.frombuffer(codes, typecode).max() >= count:
            raise _Corrupt("a str code is out of range")
        return DictColumn(codes, values)
    offsets, blob = planes
    return _packed(offsets, blob, rows, bytes if layout == _BYTES else _uncell)


def decode_partition(data, names, width):
    """The :class:`ColumnarPartition` in one partition file's bytes, of
    a *width*-column table whose :func:`names_block` is *names*."""
    view = memoryview(data)[: max(len(data) - _CRC.size, 0)]
    if len(view) < _HEAD.size or \
            zlib.crc32(view) != _CRC.unpack_from(data, len(view))[0]:
        raise _Corrupt("truncated, or its checksum does not match")
    magic, version, rows, columns = _HEAD.unpack_from(view)
    position = _HEAD.size + len(names)
    if (magic, version) != (_MAGIC, _VERSION):
        raise _Corrupt("not a table partition file of this version")
    if columns != width or view[_HEAD.size : position] != names:
        raise _Corrupt("its columns are not the manifest's")
    layouts = view[position : position + width].tolist()
    position += width
    if len(layouts) != width or max(layouts, default=0) >= len(_PLANES):
        raise _Corrupt("bad column layouts")
    count = sum(map(_PLANES.__getitem__, layouts))
    lengths = _fixed(view[position : position + 8 * count], count, "Q")
    planes = _cut(view, position + 8 * count, lengths, "planes")
    columns = []
    for layout in layouts:
        columns.append(_decode_column(layout, planes[: _PLANES[layout]], rows))
        del planes[: _PLANES[layout]]
    return ColumnarPartition(columns, rows)


def _manifest_defect(manifest):
    """What is wrong with a table file's manifest, or None."""
    names, sizes = manifest.get("columns"), manifest.get("partition_rows")
    count, rows = manifest.get("num_partitions"), manifest.get("num_rows")
    for field, valid in (
        ("columns", isinstance(names, list)
         and all(isinstance(name, str) for name in names)),
        ("num_partitions", _counts([count])),
        ("num_rows", _counts([rows])),
        ("partition_rows", _counts(sizes) and sum(sizes) == rows
         and len(sizes) == count == len(manifest["section_bytes"])),
    ):
        if not valid:
            return "field {!r} is missing or inconsistent".format(field)
    return None


# -- one file ------------------------------------------------------------

def atomic_write_bytes(path, data):
    """Write *data* to *path* through a hidden ``.staging-*`` sibling and
    one ``os.replace``: a crash leaves the old file or the new one."""
    path = Path(path)
    staging = path.parent / ".staging-{}-{}".format(path.name, os.getpid())
    with open(staging, "wb") as fh:
        fh.write(data)
    os.replace(staging, path)
    return path


def pack_file(head, sections):
    """One file: the fixed head, *head* as JSON with ``section_bytes``
    added, then the *sections*, each 8-byte aligned."""
    text = json.dumps(dict(head, section_bytes=[*map(len, sections)]))
    text = text.encode("ascii")
    return _aligned(
        _FILE.pack(_FILE_MAGIC, len(text), zlib.crc32(text)) + text, sections
    )


def unpack_file(data, form):
    """``(head, sections)`` of :func:`pack_file`'s bytes, whose head is
    tagged ``"format": form``, the sections as views of *data*; a
    defect raises :class:`ExecutionError`."""
    view = memoryview(data)
    if len(view) < _FILE.size:
        raise _Corrupt("truncated")
    magic, length, crc = _FILE.unpack_from(view)
    text = view[_FILE.size : _FILE.size + length]
    if magic != _FILE_MAGIC or len(text) != length or \
            zlib.crc32(text) != crc:
        raise _Corrupt("not a file of this format, or its manifest is cut "
                       "or fails its checksum")
    try:
        head = json.loads(bytes(text))
    except ValueError as exc:  # JSON or UTF-8
        raise _Corrupt("its manifest is not valid JSON: {}".format(exc))
    if not isinstance(head, dict) or head.get("format") != form or \
            not _counts(head.get("section_bytes")):
        raise _Corrupt("its manifest is not a JSON object of format {!r} "
                       "with valid 'section_bytes'".format(form))
    return head, _cut(view, _FILE.size + length, head["section_bytes"],
                      "sections")


class TableStore:
    """A directory of named tables, one ``<name>.tbl`` file each.

    A table name is a plain file name: one that is empty, starts with
    ``.`` or holds a path separator raises :class:`ExecutionError` in
    every method. A ``repro.table/2`` table (a directory) is not listed
    and must be rewritten.
    """

    def __init__(self, root):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def path(self, name):
        """The file of table *name*."""
        return self.root / (_check_name(name) + _SUFFIX)

    def _no_file(self, name):
        """False, or an error if *name* is a ``repro.table/2`` directory."""
        if (self.root / name).is_dir():
            raise ExecutionError("stored table {!r} is a repro.table/2 "
                                 "directory: rewrite the table".format(name))
        return False

    def exists(self, name):
        return self.path(name).is_file() or self._no_file(name)

    def list_tables(self):
        """Names of all stored tables, sorted (staged files excluded)."""
        return sorted(p.stem for p in self.root.glob("*" + _SUFFIX)
                      if p.is_file() and not p.name.startswith("."))

    def write(self, name, table):
        """Materialize *table* and persist it under *name* (overwrites).

        Partitions are encoded in the layout the plan produced them in,
        never as rows, and all of them before anything is staged: a
        value the format cannot hold fails the write with one
        :class:`ExecutionError` naming table, column, partition, row and
        type. A crash leaves the previous table or the new one.
        """
        path = self.path(name)
        names = list(table.schema.names)
        block = names_block(names)
        partitions = table.context.executor.execute(table.plan, as_rows=False)
        sections = [encode_partition(
            "table {!r} partition {}".format(name, index), names, block, part
        ) for index, part in enumerate(partitions)]
        rows = [len(part) for part in partitions]
        manifest = dict(format=_FORMAT, columns=names,
                        num_partitions=len(rows), num_rows=sum(rows),
                        partition_rows=rows)
        atomic_write_bytes(path, pack_file(manifest, sections))
        if (self.root / name).is_dir():  # the table's repro.table/2 form
            shutil.rmtree(self.root / name)
        return manifest

    def _load(self, name):
        """The checked manifest and sections of one read of a table."""
        try:
            with open(self.path(name), "rb") as fh:
                data = fh.read()
        except FileNotFoundError:
            self._no_file(name)
            raise ExecutionError("no stored table named {!r}".format(name))
        try:
            manifest, sections = unpack_file(data, _FORMAT)
            defect = _manifest_defect(manifest)
        except _Corrupt as exc:
            defect = "it is corrupt: {}".format(exc)
        if defect is not None:
            raise ExecutionError("stored table {!r}: {}".format(name, defect))
        return manifest, sections

    def read(self, context, name):
        """Load a stored table into *context*, preserving partitions."""
        manifest, sections = self._load(name)
        columns = manifest["columns"]
        block, partitions = names_block(columns), []
        for index, section in enumerate(sections):
            try:
                partition = decode_partition(section, block, len(columns))
                if len(partition) != manifest["partition_rows"][index]:
                    raise _Corrupt("its rows are not the manifest's")
            except _Corrupt as exc:
                raise ExecutionError("stored table {!r} partition {} is "
                                     "corrupt: {}".format(name, index, exc))
            partitions.append(partition)
        return context.table_from_columnar(columns, partitions)

    def manifest(self, name):
        """Return the checked manifest dict of a stored table."""
        return self._load(name)[0]

    def gc(self):
        """Remove crash debris, the ``.staging-*`` files and the
        ``repro.table/2`` writer's ``.staging-*``/``.retired-*``
        directories, while no write is in flight; returns their names."""
        removed = []
        for path in sorted(self.root.iterdir()):
            if path.name.startswith((".staging-", ".retired-")):
                (shutil.rmtree if path.is_dir() else os.unlink)(path)
                removed.append(path.name)
        return removed

    def delete(self, name):
        """Remove a stored table if present."""
        self.path(name).unlink(missing_ok=True)
