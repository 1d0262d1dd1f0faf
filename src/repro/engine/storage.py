"""On-disk table storage: the sink of Table 6's "interpretation followed
by writing the results to the database".

A table is a directory of one file per partition and a JSON manifest
tagged ``"format": "repro.table/2"``; reading one runs no stored code.
A partition file is a header (row count, column names and layouts,
plane lengths), 8-byte aligned planes and a CRC32 of all before it.
Each column is stored in its :func:`~repro.engine.columnar._build_column`
layout: float64 or int64 values, a bytes plane (offsets and blob), a str
dictionary (the values present, sorted, and a code per row) or, for
bool, None, ``TRUNCATED``, ints beyond 64 bits and mixed columns, a
bytes plane of tagged cells decoded per cell when read, as ``m_info`` is
in a ``.ctrc`` file. A read checks the CRC, every plane and the headers
against the manifest and hands the engine views of the file's planes.
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
    DictColumn,
    _build_column,
    _typecode,
    code_array,
)
from repro.engine.errors import ExecutionError
from repro.sentinels import TRUNCATED

_MANIFEST = "manifest.json"
_FORMAT = "repro.table/2"
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
    """A defect of a stored partition file."""


def _check_name(name):
    if not isinstance(name, str) or not name or name.startswith(".") or any(
        sep and sep in name for sep in ("/", "\0", os.sep, os.altsep)
    ):
        raise ExecutionError("invalid table name {!r}: a table name is "
                             "non-empty, does not start with '.' and holds "
                             "no path separator".format(name))
    return name


def _part_name(index):
    return "part-{:05d}.tbl".format(index)


def _utf8(text):
    return text.encode("utf-8", "surrogatepass")


def _text(raw):
    try:
        return str(raw, "utf-8", "surrogatepass")
    except UnicodeDecodeError:
        raise _Corrupt("a stored str is not UTF-8")


# -- writer --------------------------------------------------------------

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
    if len(values) != 1:
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
    if isinstance(column, (array, memoryview)) and \
            _typecode(column) in ("d", "q"):
        return (_FLOAT if _typecode(column) == "d" else _INT), [
            column.tobytes()
        ]
    if isinstance(column, DictColumn) and {*map(type, column.values)} <= {str}:
        return _STR, _encode_str(column)
    built = _build_column(column if isinstance(column, list) else list(column))
    if isinstance(built, list):
        return _TAGGED, _varying(list(map(_cell, range(len(built)), built)))
    if isinstance(built, BytesColumn):
        return _BYTES, [built.offsets.tobytes(), built.blob]
    return _encode_column(built)


def _names_block(names):
    """The header's column names: each length-prefixed UTF-8."""
    return b"".join(
        struct.pack("<H", len(text)) + text for text in map(_utf8, names)
    )


def _encode_partition(where, names, block, partition):
    """The bytes of one partition file; *block* is the
    :func:`_names_block` of *names*, *where* names the table and
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
    pieces = [
        _HEAD.pack(_MAGIC, _VERSION, len(partition), len(names)),
        block, bytes(layouts), array("Q", map(len, planes)).tobytes(),
    ]
    position = sum(map(len, pieces))
    for plane in planes:
        pad = -position % 8
        pieces += (bytes(pad), plane)
        position += pad + len(plane)
    data = b"".join(pieces)
    return data + _CRC.pack(zlib.crc32(data))


# -- reader --------------------------------------------------------------

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


def _decode_partition(data, names, width):
    """The :class:`ColumnarPartition` in one partition file's bytes, of
    a *width*-column table whose :func:`_names_block` is *names*."""
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
    position += 8 * count
    planes = []
    for length in lengths:
        position += -position % 8
        planes.append(view[position : position + length])
        position += length
    if position != len(view):
        raise _Corrupt("its planes do not end where the file does")
    columns = []
    for layout in layouts:
        columns.append(_decode_column(layout, planes[: _PLANES[layout]], rows))
        del planes[: _PLANES[layout]]
    return ColumnarPartition(columns, rows)


def _manifest_defect(manifest):
    """What is wrong with a manifest, or None."""
    if not isinstance(manifest, dict):
        return "the manifest is not a JSON object"
    if "format" not in manifest:
        return "it has no 'format': it was written by an older version " \
            "and must be rewritten"
    if manifest["format"] != _FORMAT:
        return "unsupported format {!r}".format(manifest["format"])

    def counts(values):
        return all(type(v) is int and v >= 0 for v in values)

    sizes = manifest.get("partition_rows")
    checks = (
        ("columns", isinstance(manifest.get("columns"), list) and all(
            isinstance(name, str) for name in manifest["columns"]
        )),
        ("num_partitions", counts([manifest.get("num_partitions")])),
        ("num_rows", counts([manifest.get("num_rows")])),
        ("partition_rows", isinstance(sizes, list) and counts(sizes)
         and len(sizes) == manifest.get("num_partitions")
         and sum(sizes) == manifest.get("num_rows")),
    )
    for field, valid in checks:
        if not valid:
            return "field {!r} is missing or inconsistent".format(field)
    return None


class TableStore:
    """A directory of named, partitioned tables.

    A table name is a plain file name: one that is empty, starts with
    ``.`` or holds a path separator raises :class:`ExecutionError` in
    every method, so no table reaches outside the root.
    """

    def __init__(self, root):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def table_dir(self, name):
        return self.root / _check_name(name)

    def exists(self, name):
        return (self.table_dir(name) / _MANIFEST).is_file()

    def list_tables(self):
        """Names of all stored tables, sorted (staging dirs excluded)."""
        return sorted(
            p.name for p in self.root.iterdir()
            if not p.name.startswith(".") and (p / _MANIFEST).is_file()
        )

    def write(self, name, table):
        """Materialize *table* and persist it under *name* (overwrites).

        Partitions are encoded in the layout the plan produced them in,
        never as rows, and all of them before anything is staged: a
        value of a type the format cannot hold fails the write with one
        :class:`ExecutionError` naming table, column, partition, row and
        type. Crash-safe: partitions and manifest are staged in a hidden
        sibling directory that is renamed over the old table only once
        complete, so a crash mid-write leaves either the previous table
        or the new one fully readable.
        """
        directory = self.table_dir(name)
        names = list(table.schema.names)
        block = _names_block(names)
        partitions = table.context.executor.execute(table.plan, as_rows=False)
        files = [
            _encode_partition(
                "table {!r} partition {}".format(name, index), names, block,
                partition,
            )
            for index, partition in enumerate(partitions)
        ]
        manifest = {
            "format": _FORMAT,
            "columns": names,
            "num_partitions": len(partitions),
            "num_rows": sum(len(p) for p in partitions),
            "partition_rows": [len(p) for p in partitions],
        }
        staging = self.root / ".staging-{}-{}".format(name, os.getpid())
        if staging.exists():
            shutil.rmtree(staging)
        staging.mkdir(parents=True)
        for index, data in enumerate(files):
            with open(staging / _part_name(index), "xb") as fh:
                fh.write(data)
        with open(staging / _MANIFEST, "w") as fh:
            json.dump(manifest, fh)
        if directory.exists():
            retired = self.root / ".retired-{}-{}".format(name, os.getpid())
            if retired.exists():
                shutil.rmtree(retired)
            os.rename(directory, retired)
            os.rename(staging, directory)
            shutil.rmtree(retired)
        else:
            os.rename(staging, directory)
        return manifest

    def read(self, context, name):
        """Load a stored table into *context*, preserving partitions."""
        manifest = self.manifest(name)
        columns = manifest["columns"]
        block = _names_block(columns)
        directory = str(self.table_dir(name))
        partitions = []
        for index, rows in enumerate(manifest["partition_rows"]):
            part_name = _part_name(index)
            try:
                with open(os.path.join(directory, part_name), "rb") as fh:
                    partition = _decode_partition(fh.read(), block,
                                                  len(columns))
                if len(partition) != rows:
                    raise _Corrupt("it holds {} rows, the manifest {}".format(
                        len(partition), rows
                    ))
            except FileNotFoundError as exc:
                raise ExecutionError(
                    "stored table {!r} is missing partition file {!r} "
                    "(manifest expects {} partitions)".format(
                        name, part_name, manifest["num_partitions"]
                    ),
                    exc,
                )
            except _Corrupt as exc:
                raise ExecutionError(
                    "stored table {!r} partition file {!r} is corrupt: "
                    "{}".format(name, part_name, exc)
                )
            partitions.append(partition)
        return context.table_from_columnar(columns, partitions)

    def manifest(self, name):
        """Return the checked manifest dict of a stored table."""
        try:
            with open(self.table_dir(name) / _MANIFEST, "rb") as fh:
                manifest = json.loads(fh.read())
        except FileNotFoundError:
            raise ExecutionError("no stored table named {!r}".format(name))
        except ValueError as exc:  # JSON or UTF-8
            raise ExecutionError(
                "stored table {!r}: manifest is not valid JSON: {}".format(
                    name, exc
                )
            )
        defect = _manifest_defect(manifest)
        if defect is not None:
            raise ExecutionError("stored table {!r}: {}".format(name, defect))
        return manifest

    def gc(self):
        """Remove orphaned staging/retired directories; returns their names.

        :meth:`write` stages new partitions in a hidden ``.staging-*``
        sibling and briefly parks the old table as ``.retired-*`` during
        the swap. A crash between stage and rename leaves that debris
        behind -- invisible to readers (:meth:`list_tables` skips hidden
        directories) but consuming disk forever. Safe to call any time
        no write is concurrently in flight on this store.
        """
        removed = []
        for path in sorted(self.root.iterdir()):
            if not path.is_dir():
                continue
            if path.name.startswith((".staging-", ".retired-")):
                shutil.rmtree(path)
                removed.append(path.name)
        return removed

    def delete(self, name):
        """Remove a stored table if present."""
        directory = self.table_dir(name)
        if not directory.is_dir():
            return
        for path in directory.glob("part-*"):
            path.unlink()
        manifest = directory / _MANIFEST
        if manifest.is_file():
            manifest.unlink()
        try:
            directory.rmdir()
        except OSError:
            pass
