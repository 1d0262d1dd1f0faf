"""Columnar partitions: typed column buffers behind one abstraction.

A partition is normally a ``list`` of row tuples. For the hot numeric
paths of the paper -- preselection scans over ``(t, b_id, m_id)``,
interpretation projections, reduction filters -- that layout pays a
Python object per cell and a tuple per row. A
:class:`ColumnarPartition` stores the same rows column-major instead:

* an ``array.array('q')`` buffer for all-``int`` columns;
* an ``array.array('d')`` buffer for all-``float`` columns (bit-exact,
  including NaN and signed zeros);
* a :class:`BytesColumn` plane -- one contiguous blob plus an offsets
  array -- for all-``bytes`` columns (frame payloads) and, with a
  per-cell ``decode`` hook, for packed structured cells (``m_info``);
* a :class:`DictColumn` -- small integer codes into a tuple of the
  distinct values -- for all-``str`` columns (signal and channel ids);
* a :class:`ValueColumn` -- one float64 plane and a kind byte per cell
  -- for decoded signal values, which mix floats, ints and labels;
* a plain object list for everything else (bool, None, mixed).

Layout selection is *exact-type* driven, so ``rows -> columns -> rows``
is an identity: ``True`` never comes back as ``1``, ``1`` never as
``1.0``, big ints that overflow 64 bits stay objects. The property
tests in ``tests/engine/test_columnar.py`` pin this.

Columnar partitions appear inside :class:`~repro.engine.plan.Source`
nodes (built by :meth:`EngineContext.table_from_columnar` or the
columnar tracefile reader), inside the narrow-chain task
(:class:`~repro.engine.operations.PartitionTask`, which filters and
projects whole columns), in
:meth:`~repro.engine.table.Table.split_by_key` and in the table store. Rows
are materialized at collect edges, in front of the wide stages and in
front of a row barrier (a flat-map or a plain partition function), via
:func:`as_row_partition` and :func:`columns_to_rows`.

*Moving* a cell and *reading* it are different operations on a packed
plane: :meth:`BytesColumn.gather` -- which :func:`gather_column` (splits)
and :func:`compress_column` (filters) route to -- copies
byte ranges and never calls ``decode``; a cell is decoded only where
something indexes or iterates the plane (a rule that reads it,
:func:`columns_to_rows` at a row-landing edge).

Instances are treated as read-only once built; tasks always allocate
fresh column lists instead of mutating buffers, so a partition can be
shared between a plan node and several tasks.
"""

from __future__ import annotations

from array import array
from itertools import accumulate, chain, compress, repeat

import numpy as np

__all__ = [
    "BytesColumn",
    "ColumnarPartition",
    "DictColumn",
    "ValueColumn",
    "as_row_partition",
    "columns_to_rows",
    "compress_column",
    "gather_column",
]


class BytesColumn:
    """A packed column: one contiguous blob plus offsets.

    ``offsets`` has ``len(column) + 1`` entries; cell *i* is
    ``decode(blob[offsets[i]:offsets[i + 1]])``. With the default
    ``decode=bytes`` this is the payload plane of the columnar trace
    format; a codec passes its own
    decoder to keep structured cells packed the same way. Either way a
    cell is materialized only when indexed or iterated --
    :meth:`gather` moves cells without decoding them.
    """

    __slots__ = ("offsets", "blob", "decode")

    def __init__(self, offsets, blob, decode=bytes):
        if len(offsets) == 0:
            raise ValueError("offsets must have at least one entry")
        self.offsets = offsets
        self.blob = blob
        # bytes() is an identity on bytes slices and materializes
        # memoryview slices (mmap-backed blobs), so payload cells always
        # come back with the exact type the rows went in with.
        self.decode = decode

    @classmethod
    def from_values(cls, values, decode=bytes):
        chunks = list(values)
        offsets = array("Q", accumulate(map(len, chunks), initial=0))
        return cls(offsets, b"".join(chunks), decode)

    def __len__(self):
        return len(self.offsets) - 1

    def __getitem__(self, index):
        offsets = self.offsets
        if isinstance(index, slice):
            start, stop, step = index.indices(len(self))
            if step != 1:
                return self.gather(range(start, stop, step))
            return BytesColumn(
                offsets[start : max(start, stop) + 1], self.blob, self.decode
            )
        if index < 0:
            index += len(self)
        if not 0 <= index < len(self):
            raise IndexError("BytesColumn index out of range")
        return self.decode(self.blob[offsets[index] : offsets[index + 1]])

    def __iter__(self):
        blob = self.blob
        decode = self.decode
        offsets = self.offsets
        start = offsets[0]
        for end in offsets[1:]:
            yield decode(blob[start:end])
            start = end

    def gather(self, indices):
        """The plane holding cells *indices*, in that order, still packed.

        Byte ranges are copied into a fresh blob; ``decode`` is never
        called, so a malformed cell is moved like any other.
        """
        offsets = self.offsets
        blob = self.blob
        if isinstance(indices, np.ndarray):
            indices = indices.tolist()
        chunks = [blob[offsets[i] : offsets[i + 1]] for i in indices]
        out_offsets = array("Q", accumulate(map(len, chunks), initial=0))
        # join() flattens memoryview chunks of mmap-backed blobs.
        return BytesColumn(out_offsets, b"".join(chunks), self.decode)

    @classmethod
    def concat(cls, planes):
        """The cells of *planes* in order, still packed, decoded as the
        first plane decodes."""
        offsets = array("Q", [0])
        for plane in planes:
            shift = offsets[-1] - plane.offsets[0]
            offsets.extend([offset + shift for offset in plane.offsets[1:]])
        return cls(
            offsets,
            b"".join(p.blob[p.offsets[0] : p.offsets[-1]] for p in planes),
            planes[0].decode,
        )

    def rebased(self):
        """``(offsets, blob)``: the cells' bytes and their offsets from
        0, for a plane whose cells are their bytes; None for a plane
        that decodes its cells."""
        if self.decode is not bytes:
            return None
        base = self.offsets[0]
        offsets = np.asarray(self.offsets, np.uint64) - np.uint64(base)
        return offsets.tobytes(), self.blob[base : self.offsets[-1]]

    def nbytes(self):
        """Bytes of the cells this plane covers plus its offsets."""
        offsets = self.offsets
        return offsets[-1] - offsets[0] + len(offsets) * offsets.itemsize


def code_array(codes, size):
    """*codes* (ints below *size*, an iterable or a numpy array) in the
    narrowest unsigned ``array``."""
    typecode = "B" if size <= 1 << 8 else "H" if size <= 1 << 16 else "I"
    if isinstance(codes, np.ndarray):
        return array(typecode, codes.astype(typecode).tobytes())
    return array(typecode, codes)


class DictColumn:
    """A dictionary-coded column: cell *i* is ``values[codes[i]]``, with
    ``codes`` an unsigned ``array`` or ``memoryview`` and ``values`` a
    tuple of distinct cells. Moving cells moves codes only."""

    __slots__ = ("codes", "values")

    def __init__(self, codes, values):
        self.codes = codes
        self.values = values

    @classmethod
    def from_values(cls, values):
        distinct = tuple(dict.fromkeys(values))
        index = {value: code for code, value in enumerate(distinct)}
        return cls(
            code_array(map(index.__getitem__, values), len(distinct)),
            distinct,
        )

    def __len__(self):
        return len(self.codes)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return DictColumn(self.codes[index], self.values)
        return self.values[self.codes[index]]

    def __iter__(self):
        return map(self.values.__getitem__, self.codes)

    def gather(self, indices):
        return DictColumn(gather_column(self.codes, indices), self.values)

    @classmethod
    def concat(cls, columns):
        """The cells of *columns* in order, over one dictionary: the
        values of the first column, then those a later one adds. Codes
        are remapped into it, at one :func:`code_array` width; a value
        is one entry per exact type, so cells keep their type."""
        index, values, codes = {}, [], []
        for column in columns:
            remap = []
            for value in column.values:
                code = index.setdefault((type(value), value), len(values))
                if code == len(values):
                    values.append(value)
                remap.append(code)
            part = np.asarray(column.codes)
            if remap != list(range(len(remap))):  # else they stand as is
                part = np.array(remap, np.intp)[part]
            codes.append(part)
        return cls(code_array(np.concatenate(codes), len(values)),
                   tuple(values))


#: The kinds of :class:`ValueColumn` cells.
FLOAT, INT, LABEL, OBJECT = range(4)
_KINDS = {float: FLOAT, int: INT, str: LABEL}


class ValueColumn:
    """Decoded values as planes: cell *i* is, by ``kinds[i]`` (uint8),
    the float ``x[i]`` (:data:`FLOAT`; ``x`` is float64), the int
    ``int(x[i])`` (:data:`INT`, ``|x[i]| < 2**63``), the label
    ``labels[x[i]]`` (:data:`LABEL`, ``labels`` distinct ``str``) or the
    object ``objects[x[i]]`` (:data:`OBJECT`: a scalar rule's value, a
    marker). Moving cells moves the two planes; :meth:`cells` builds
    cells, where rows land."""

    __slots__ = ("x", "kinds", "labels", "objects")

    def __init__(self, x, kinds, labels=(), objects=()):
        self.x, self.kinds = x, kinds
        self.labels, self.objects = labels, objects

    @classmethod
    def from_values(cls, values):
        """The column of the cells *values* (a ValueColumn is its own),
        each kinded by its exact type as :meth:`typed` does."""
        if isinstance(values, ValueColumn):
            return values
        cells = tuple(values.tolist() if isinstance(values, np.ndarray)
                      else values)
        return cls(np.arange(len(cells), dtype=float),
                   np.full(len(cells), OBJECT, np.uint8), (), cells).typed()

    def typed(self):
        """This column with each object that is a float, an int of at
        most 2**53 or a str moved to that kind."""
        slots = np.flatnonzero(self.kinds == OBJECT)
        if not len(slots):
            return self
        at = self.x[slots].astype(np.intp)
        cells = np.fromiter(self.objects, object, len(self.objects))[at]
        kinds = np.fromiter(map(_KINDS.get, map(type, cells), repeat(OBJECT)),
                            np.uint8, len(cells))
        ints = np.flatnonzero(kinds == INT)
        kinds[ints[(np.abs(cells[ints]) > 1 << 53).astype(bool)]] = OBJECT
        numbers, strs = kinds <= INT, kinds == LABEL
        labels = tuple(dict.fromkeys(chain(self.labels, cells[strs])))
        code = {label: i for i, label in enumerate(labels)}.__getitem__
        x = at.astype(float)
        x[numbers] = cells[numbers].astype(float)
        x[strs] = np.fromiter(map(code, cells[strs]), float, strs.sum())
        column = ValueColumn(self.x.copy(), self.kinds.copy(), labels,
                             self.objects)
        column.x[slots], column.kinds[slots] = x, kinds
        return column

    def cells(self):
        """The cells, as an object array."""
        out = self.x.astype(object)
        ints = self.kinds == INT
        out[ints] = self.x[ints].astype(np.int64)
        for kind, table in ((LABEL, self.labels), (OBJECT, self.objects)):
            at = self.kinds == kind
            table = np.fromiter(table, dtype=object, count=len(table))
            out[at] = table[self.x[at].astype(np.intp)]
        return out

    def tolist(self):
        return self.cells().tolist()

    def __len__(self):
        return len(self.x)

    def __iter__(self):
        return iter(self.tolist())

    def __getitem__(self, index):
        if isinstance(index, (int, np.integer)):
            return self.gather([index]).tolist()[0]
        if isinstance(index, slice):
            return ValueColumn(self.x[index], self.kinds[index], self.labels,
                               self.objects)
        return self.gather(index)

    def gather(self, indices):
        indices = np.asarray(indices, np.intp)
        return ValueColumn(self.x[indices], self.kinds[indices], self.labels,
                           self.objects)

    @classmethod
    def concat(cls, columns):
        """The cells of *columns* in order, over one label dictionary:
        the planes concatenated, then the codes of the columns that hold
        labels or objects moved into the joined tables."""
        if len(columns) == 1:
            return columns[0]
        x = np.concatenate([column.x for column in columns])
        kinds = np.concatenate([column.kinds for column in columns])
        coded = np.flatnonzero(kinds >= LABEL)
        if not len(coded):
            return cls(x, kinds)
        # Columns cut from one column share its tables: each table is
        # joined once.
        labels, codes, objects, shifts = {}, {}, [], {}
        sizes = [len(column) for column in columns]
        starts = np.cumsum([0] + sizes).tolist()
        owners = np.repeat(np.arange(len(columns)), sizes)[coded]
        for i in np.flatnonzero(np.bincount(owners)).tolist():
            column, start = columns[i], starts[i]
            at = np.flatnonzero(column.kinds == LABEL)
            if len(at):
                if id(column.labels) not in codes:
                    codes[id(column.labels)] = np.array([
                        labels.setdefault(label, len(labels))
                        for label in column.labels
                    ], float)
                x[start + at] = codes[id(column.labels)][
                    column.x[at].astype(np.intp)
                ]
            at = np.flatnonzero(column.kinds == OBJECT)
            if len(at):
                if id(column.objects) not in shifts:
                    shifts[id(column.objects)] = len(objects)
                    objects += column.objects
                x[start + at] += shifts[id(column.objects)]
        return cls(x, kinds, tuple(labels), tuple(objects))

    def kind(self):
        """The one kind of every cell, or None (mixed, or no cells)."""
        kinds = self.kinds
        if len(kinds) and (kinds == kinds[0]).all():
            return int(kinds[0])
        return None

    def plane(self):
        """The layout :func:`_build_column` gives these cells -- a
        float64 or int64 ``array`` or a :class:`DictColumn` where all of
        them share a kind, else a list of them -- from the planes."""
        column = self.typed()
        kinds = np.flatnonzero(np.bincount(column.kinds, minlength=4))
        if kinds.tolist() in ([FLOAT], [INT]):
            typecode = "dq"[kinds[0]]  # FLOAT: "d", INT: "q"
            return array(typecode, column.x.astype(typecode).tobytes())
        if kinds.tolist() == [LABEL]:
            return DictColumn(code_array(column.x.astype(np.intp),
                                         len(column.labels)), column.labels)
        return column.tolist()

    @classmethod
    def from_plane(cls, column):
        """The inverse of :meth:`plane`: the column of the cells of a
        float64 or int64 buffer, a :class:`DictColumn` of labels or a
        list, each kinded as :meth:`typed` does."""
        if isinstance(column, (array, memoryview)) and \
                _typecode(column) in ("d", "q"):
            x = np.asarray(column)
            if x.dtype == np.float64:
                return cls(x.copy(), np.full(len(x), FLOAT, np.uint8))
            if not ((x >= -(1 << 53)) & (x <= 1 << 53)).all():
                return cls.from_values(x.tolist())  # big ints: objects
            return cls(x.astype(float), np.full(len(x), INT, np.uint8))
        if isinstance(column, DictColumn) and \
                {*map(type, column.values)} <= {str}:
            return cls(np.asarray(column.codes, float),
                       np.full(len(column), LABEL, np.uint8), column.values)
        return cls.from_values(list(column))


def _build_column(values):
    """Pick the densest exact-type-preserving layout for one column's
    cells (:meth:`ValueColumn.plane` picks it from planes; the table
    store writes these)."""
    kinds = set(map(type, values))
    if kinds == {int}:
        try:
            return array("q", values)
        except OverflowError:
            return list(values)
    if kinds == {float}:
        return array("d", values)
    if kinds == {bytes}:
        return BytesColumn.from_values(values)
    if kinds == {str}:
        return DictColumn.from_values(values)
    # bool/None/mixed columns stay object lists: bools must come back
    # as bools (array('b') would launder them into ints), and a mixed
    # column has no single buffer type.
    return list(values)


def _typecode(buffer):
    return buffer.typecode if isinstance(buffer, array) else buffer.format


def gather_column(column, indices):
    """Select ``column[i] for i in indices`` preserving the buffer kind.

    Typed buffers stay typed (``array('q')`` gathers into ``array('q')``,
    mmap'ed ``memoryview`` columns into an equivalent ``array``,
    :class:`BytesColumn` into a fresh blob+offsets plane, undecoded,
    :class:`DictColumn` into gathered codes over the same values);
    everything else -- object lists, tuple columns from row transposes
    -- gathers into a plain object list. Cell values are
    exactly what indexing the source column yields, so a gather composes
    with :func:`columns_to_rows` into the same row tuples a row-level
    selection would build.
    """
    if isinstance(column, (array, memoryview)):
        typecode = _typecode(column)
        picked = np.frombuffer(column, typecode)[np.asarray(indices, np.intp)]
        return array(typecode, picked.tobytes())
    if isinstance(column, (BytesColumn, DictColumn, ValueColumn)):
        return column.gather(indices)
    if isinstance(indices, np.ndarray):
        indices = indices.tolist()
    return [column[i] for i in indices]


def compress_column(column, mask):
    """The cells of *column* whose *mask* entry is true (filters).

    A typed buffer, a packed plane, a dictionary-coded column and a
    value column keep their layout (:func:`gather_column` of the
    selected positions); every other column compresses to a list.
    """
    if isinstance(column, (array, memoryview, BytesColumn, DictColumn,
                           ValueColumn)):
        kept = np.flatnonzero(np.fromiter(mask, bool, len(column)))
        return gather_column(column, kept)
    return list(compress(column, mask))


def columns_to_rows(columns, length):
    """Transpose column sequences back into a list of row tuples.

    *length* matters for zero-column tables, where there is no column
    left to count rows from.
    """
    if not columns:
        return [()] * length
    return list(zip(*columns))


class ColumnarPartition:
    """One partition stored column-major.

    ``columns`` is a list of per-column sequences (``array.array``,
    :class:`BytesColumn` or object list), all of the same length.
    Identity semantics (default ``__eq__``/``__hash__``) keep the
    object usable inside frozen plan nodes; compare :meth:`to_rows`
    when value equality is meant.
    """

    __slots__ = ("columns", "_length")

    def __init__(self, columns, length):
        columns = list(columns)
        for column in columns:
            if len(column) != length:
                raise ValueError(
                    "column length {} does not match partition length "
                    "{}".format(len(column), length)
                )
        self.columns = columns
        self._length = length

    @classmethod
    def from_rows(cls, rows, width):
        """Transpose row tuples into typed column buffers."""
        if not rows:
            return cls([[] for _unused in range(width)], 0)
        transposed = list(zip(*rows))
        if len(transposed) != width:
            raise ValueError(
                "rows have width {}, expected {}".format(
                    len(transposed), width
                )
            )
        return cls([_build_column(c) for c in transposed], len(rows))

    def to_rows(self):
        """The exact row tuples this partition was built from."""
        return columns_to_rows(self.columns, self._length)

    def __len__(self):
        return self._length

    @property
    def width(self):
        return len(self.columns)

    def column(self, index):
        return self.columns[index]

    def gather(self, indices):
        """A new partition holding rows ``indices``, in that order.

        The index-level equivalent of selecting rows from
        :meth:`to_rows`: every column is gathered independently through
        :func:`gather_column`, so no intermediate row tuples exist.
        *indices* may be any re-iterable of in-range row positions
        (list, array, range).
        """
        if not isinstance(indices, (list, range, np.ndarray)):
            indices = list(indices)
        return ColumnarPartition(
            [gather_column(c, indices) for c in self.columns],
            len(indices),
        )

    def slice(self, start, stop):
        """Rows ``start:stop``; packed planes keep sharing their blob."""
        return ColumnarPartition(
            [column[start:stop] for column in self.columns],
            len(range(self._length)[start:stop]),
        )

    @classmethod
    def concat(cls, parts):
        """The rows of *parts* in order. A column keeps its layout where
        every part has it (planes are never decoded); else it is a list
        of the cells."""
        if len(parts) == 1:
            return parts[0]
        columns = []
        for cells in zip(*(part.columns for part in parts)):
            kinds = {
                _typecode(c) if isinstance(c, (array, memoryview))
                else type(c) for c in cells
            }
            if kinds == {BytesColumn}:
                columns.append(BytesColumn.concat(cells))
            elif kinds == {DictColumn}:
                columns.append(DictColumn.concat(cells))
            elif kinds == {ValueColumn}:
                columns.append(ValueColumn.concat(cells))
            elif len(kinds) == 1 and isinstance(cells[0], (array, memoryview)):
                column = array(_typecode(cells[0]))
                for c in cells:
                    column.frombytes(c.tobytes())
                columns.append(column)
            else:
                columns.append(list(chain.from_iterable(cells)))
        return cls(columns, sum(map(len, parts)))

    def nbytes(self):
        """Approximate buffer footprint (feeds the partition_bytes gauge).

        Typed buffers report their true byte size; object columns are
        charged one pointer per cell (the objects themselves are shared
        with whoever built the partition).
        """
        total = 0
        for column in self.columns:
            if isinstance(column, array):
                total += len(column) * column.itemsize
            elif isinstance(column, memoryview):
                total += column.nbytes
            elif isinstance(column, BytesColumn):
                total += column.nbytes()
            elif isinstance(column, DictColumn):
                total += len(column.codes) * column.codes.itemsize
            elif isinstance(column, ValueColumn):
                total += column.x.nbytes + column.kinds.nbytes
            else:
                total += len(column) * 8
        return total


def as_row_partition(partition):
    """Normalize a partition to a list of row tuples."""
    if isinstance(partition, ColumnarPartition):
        return partition.to_rows()
    return partition
