"""Columnar partition round-trips and layout equivalence.

The columnar layout is only allowed to change *how* cells are stored,
never what comes back: ``rows -> columns -> rows`` must be an identity
down to exact cell types (``True`` is not ``1``, ``1`` is not ``1.0``,
NaN stays bit-identical). Hypothesis drives the identity across mixed
cell types; the engine tests pin that a columnar Source collects the
same rows as a row Source through narrow tasks, barriers and pickling.
"""

import ast
import math
import mmap
import pickle
from array import array

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.engine import BytesColumn, ColumnarPartition, EngineContext, col
from repro.engine.columnar import as_row_partition
from repro.engine.columnar import (
    DictColumn,
    columns_to_rows,
    compress_column,
    gather_column,
)
from repro.engine.errors import PlanError
from repro.engine.executor import MultiprocessingExecutor


def _eq_cell(left, right):
    """Exact-type, NaN-aware cell equality."""
    if type(left) is not type(right):
        return False
    if isinstance(left, float):
        if math.isnan(left) or math.isnan(right):
            return math.isnan(left) and math.isnan(right)
    return left == right


def _eq_rows(left_rows, right_rows):
    return len(left_rows) == len(right_rows) and all(
        len(l) == len(r) and all(_eq_cell(a, b) for a, b in zip(l, r))
        for l, r in zip(left_rows, right_rows)
    )


_CELLS = st.one_of(
    st.integers(min_value=-(2 ** 70), max_value=2 ** 70),
    st.floats(allow_nan=True, allow_infinity=True),
    st.booleans(),
    st.text(max_size=8),
    st.none(),
    st.binary(max_size=12),
)


@st.composite
def _tables(draw, min_width=0, max_width=6):
    width = draw(st.integers(min_value=min_width, max_value=max_width))
    height = draw(st.integers(min_value=0, max_value=24))
    rows = [
        tuple(draw(_CELLS) for _unused in range(width))
        for _unused in range(height)
    ]
    return width, rows


class TestRoundTripProperties:
    @given(table=_tables())
    @settings(max_examples=150, deadline=None)
    def test_rows_columns_rows_identity(self, table):
        width, rows = table
        part = ColumnarPartition.from_rows(rows, width)
        assert len(part) == len(rows)
        assert part.width == width
        assert _eq_rows(part.to_rows(), rows)

    @given(table=_tables(min_width=1, max_width=1))
    @settings(max_examples=60, deadline=None)
    def test_single_column_tables(self, table):
        width, rows = table
        part = ColumnarPartition.from_rows(rows, width)
        assert _eq_rows(part.to_rows(), rows)
        assert len(part.column(0)) == len(rows)

    @given(table=_tables())
    @settings(max_examples=60, deadline=None)
    def test_pickle_round_trip(self, table):
        width, rows = table
        part = ColumnarPartition.from_rows(rows, width)
        clone = pickle.loads(pickle.dumps(part))
        assert _eq_rows(clone.to_rows(), rows)

    def test_empty_partition_keeps_width(self):
        part = ColumnarPartition.from_rows([], 3)
        assert len(part) == 0
        assert part.width == 3
        assert part.to_rows() == []

    def test_zero_column_table_keeps_length(self):
        rows = [(), (), ()]
        part = ColumnarPartition.from_rows(rows, 0)
        assert len(part) == 3
        assert part.to_rows() == rows
        assert columns_to_rows([], 3) == rows


class TestLayoutSelection:
    def test_int_column_packs_dense(self):
        part = ColumnarPartition.from_rows([(1,), (2,), (3,)], 1)
        assert isinstance(part.column(0), array)
        assert part.column(0).typecode == "q"

    def test_float_column_is_bit_exact(self):
        values = [0.1 + 0.2, float("nan"), -0.0, float("inf")]
        part = ColumnarPartition.from_rows([(v,) for v in values], 1)
        assert isinstance(part.column(0), array)
        back = [r[0] for r in part.to_rows()]
        assert all(_eq_cell(a, b) for a, b in zip(back, values))

    def test_bool_column_stays_bool(self):
        part = ColumnarPartition.from_rows([(True,), (False,)], 1)
        back = [r[0] for r in part.to_rows()]
        assert back == [True, False]
        assert all(isinstance(v, bool) for v in back)

    def test_huge_ints_fall_back_to_objects(self):
        rows = [(2 ** 100,), (1,)]
        part = ColumnarPartition.from_rows(rows, 1)
        assert isinstance(part.column(0), list)
        assert part.to_rows() == rows

    def test_bytes_column_uses_contiguous_plane(self):
        rows = [(b"ab",), (b"",), (b"cdef",)]
        part = ColumnarPartition.from_rows(rows, 1)
        column = part.column(0)
        assert isinstance(column, BytesColumn)
        assert column.blob == b"abcdef"
        assert list(column) == [b"ab", b"", b"cdef"]
        assert column[-1] == b"cdef"
        with pytest.raises(IndexError):
            column[3]
        assert part.to_rows() == rows

    def test_ragged_columns_rejected(self):
        with pytest.raises(ValueError):
            ColumnarPartition([[1, 2], [1]], 2)

    def test_ragged_rows_rejected(self):
        with pytest.raises(ValueError):
            ColumnarPartition.from_rows([(1, 2), (3, 4)], 3)

    def test_nbytes_reflects_buffers(self):
        part = ColumnarPartition.from_rows(
            [(1, 0.5, b"xy"), (2, 1.5, b"z")], 3
        )
        # 2 int64 + 2 float64 + (3 bytes blob + 3 offsets * 8).
        assert part.nbytes() == 16 + 16 + 3 + 24

    def test_as_row_partition_passthrough(self):
        rows = [(1,), (2,)]
        assert as_row_partition(rows) is rows
        assert as_row_partition(ColumnarPartition.from_rows(rows, 1)) == rows


_DECODES = []


def _decode_cell(data):
    """Decode hook of the packed test planes (module-level: it pickles)."""
    _DECODES.append(1)
    return ast.literal_eval(bytes(data).decode("utf-8"))


def _mmap_plane(cells):
    """*cells* as a packed plane whose offsets and blob are views of one
    anonymous mmap, padded on both sides like a section of a file."""
    chunks = [repr(cell).encode("utf-8") for cell in cells]
    base = 5  # the plane's first offset is not zero
    offsets = array("Q", [base])
    for chunk in chunks:
        offsets.append(offsets[-1] + len(chunk))
    blob = b"#" * base + b"".join(chunks) + b"#" * 3
    head = len(offsets) * 8
    mapped = mmap.mmap(-1, head + len(blob))
    mapped[:head] = offsets.tobytes()
    mapped[head:] = blob
    view = memoryview(mapped)
    return BytesColumn(view[:head].cast("Q"), view[head:], _decode_cell)


_INFO_CELLS = st.lists(
    st.tuples(
        st.text(max_size=6),
        st.one_of(st.booleans(), st.integers(), st.text(max_size=6),
                  st.floats(allow_nan=False, allow_infinity=False)),
    ),
    max_size=4,
).map(tuple)


class TestPackedPlaneMovesWithoutDecoding:
    """gather / filter compress, then decode == decode, then select."""

    @given(cells=st.lists(_INFO_CELLS, max_size=10), data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_moving_commutes_with_decoding(self, cells, data):
        n = len(cells)
        indices = data.draw(st.lists(  # repeated, out of order, or none
            st.integers(min_value=0, max_value=max(n - 1, 0)),
            max_size=0 if n == 0 else 12,
        ))
        mask = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
        plane = _mmap_plane(cells)
        del _DECODES[:]

        moved = [
            plane.gather(indices),
            gather_column(plane, indices),
            compress_column(plane, mask),
            pickle.loads(pickle.dumps(plane)),
        ]
        context = EngineContext.serial(default_parallelism=2)
        table = context.table_from_columnar(
            ["keep", "info"],
            [ColumnarPartition([list(mask), plane], n),
             ColumnarPartition([[], plane.gather([])], 0)],
        )
        cached = table.filter(col("keep")).cache()
        moved += [p.column(1) for p in cached.plan.partitions]
        assert _DECODES == []  # nothing above read a cell
        assert all(isinstance(m, BytesColumn) for m in moved)

        kept = [cell for cell, keep in zip(cells, mask) if keep]
        assert list(moved[0]) == list(moved[1]) == [cells[i] for i in indices]
        assert list(moved[2]) == kept
        assert list(moved[3]) == cells
        assert [moved[0][i] for i in range(-len(indices), 0)] == \
            [cells[i] for i in indices]
        assert cached.collect() == [(True, cell) for cell in kept]
        # A pickled plane carries the bytes its cells cover, no more.
        covered = sum(len(repr(cell).encode("utf-8")) for cell in cells)
        assert len(moved[3].blob) == covered
        assert plane.nbytes() == covered + (n + 1) * 8


    @given(
        cells=st.lists(st.binary(max_size=4), max_size=10),
        index=st.slices(12),
    )
    @example(cells=[bytes([i]) for i in range(8)], index=slice(None, None, -1))
    @example(cells=[bytes([i]) for i in range(8)], index=slice(6, 1, -2))
    @settings(max_examples=100, deadline=None)
    def test_slices_follow_list_slices(self, cells, index):
        # Any step: a step other than 1 used to be ignored. A slice is a
        # column of the same class, and moves cells without reading them.
        for column in (
            BytesColumn.from_values(cells),
            _mmap_plane(cells),
            DictColumn.from_values(cells),
        ):
            del _DECODES[:]
            sliced = column[index]
            assert type(sliced) is type(column)
            assert _DECODES == []
            assert list(sliced) == cells[index]


class TestEngineEquivalence:
    @pytest.fixture
    def rows(self):
        return [
            (i, i * 0.25, "name-{}".format(i % 4), i % 3 == 0,
             bytes([i % 251, (i * 7) % 251]))
            for i in range(200)
        ]

    def _tables(self, rows):
        columns = ["a", "b", "c", "d", "e"]
        ctx = EngineContext.serial()
        row_table = ctx.table_from_rows(columns, rows)
        parts = [
            ColumnarPartition.from_rows(rows[:90], 5),
            ColumnarPartition.from_rows(rows[90:], 5),
        ]
        columnar_table = ctx.table_from_columnar(columns, parts)
        return ctx, row_table, columnar_table

    def test_columnar_source_collects_identically(self, rows):
        _ctx, row_table, columnar_table = self._tables(rows)
        assert columnar_table.collect() == row_table.collect()

    def test_fused_chain_over_columnar_source(self, rows):
        ctx, row_table, columnar_table = self._tables(rows)

        def pipeline(table):
            return (
                table.filter(col("a") > 20)
                .with_column("scaled", col("b") * 2.0)
                .filter(col("d"))
                .select("a", "scaled", "c")
            )

        assert pipeline(columnar_table).collect() == \
            pipeline(row_table).collect()
        assert ctx.executor.metrics.columnar_tasks > 0

    def test_flat_map_chain_runs_columnar_around_the_barrier(self, rows):
        ctx, row_table, columnar_table = self._tables(rows)

        def pipeline(table):
            return table.filter(col("a") > 150).flat_map(
                _duplicate, ["a", "b", "c", "d", "e"]
            )

        assert pipeline(columnar_table).collect() == \
            pipeline(row_table).collect()
        assert ctx.executor.metrics.columnar_tasks == 2
        assert ctx.executor.metrics.columnar_fallbacks == 0

    def test_multiprocessing_ships_columnar_partitions(self, rows):
        columns = ["a", "b", "c", "d", "e"]
        with EngineContext(MultiprocessingExecutor(num_workers=2)) as ctx:
            parts = [
                ColumnarPartition.from_rows(rows[:50], 5),
                ColumnarPartition.from_rows(rows[50:120], 5),
                ColumnarPartition.from_rows(rows[120:], 5),
            ]
            table = ctx.table_from_columnar(columns, parts)
            out = table.filter(col("a") > 10).select("a", "e").collect()
        expected = [(r[0], r[4]) for r in rows if r[0] > 10]
        assert sorted(out) == sorted(expected)

    def test_width_mismatch_rejected(self, rows):
        ctx = EngineContext.serial()
        part = ColumnarPartition.from_rows(rows[:5], 5)
        with pytest.raises(PlanError):
            ctx.table_from_columnar(["a", "b"], [part])


def _duplicate(row):
    return [row, row]


class _BatchDouble:
    """Apply callable publishing the columnar batch protocol."""

    def __init__(self):
        self.batch_columns = []

    def __call__(self, value):
        return value * 2

    def batch_call(self, values):
        self.batch_columns.append(list(values))
        return [value * 2 for value in values]


class _BatchPrefixSum:
    """Partition function publishing the columnar partition protocol."""

    def __init__(self):
        self.row_calls = 0
        self.batches = []

    def __call__(self, rows):
        self.row_calls += 1
        total, out = 0, []
        for value, tag in rows:
            total += value
            out.append((tag, total))
        return out

    def batch_call(self, partition):
        self.batches.append(partition)
        values, tags = partition.columns
        sums, total = [], 0
        for value in values:
            total += value
            sums.append(total)
        return ColumnarPartition([tags, sums], len(partition))


class TestBatchPartitionFunctions:
    """``map_partitions(func)`` with ``func.batch_call(partition)``."""

    ROWS = [(i, "t{}".format(i % 3)) for i in range(30)]

    def _expected(self, filtered):
        """The row form over each of the three source partitions."""
        out = []
        for start in range(0, 30, 10):
            part = self.ROWS[start : start + 10]
            out += _BatchPrefixSum()(
                [r for r in part if r[0] >= 4] if filtered else part
            )
        return out

    def _run(self, executor, func, filtered):
        ctx = EngineContext(executor)
        table = ctx.table_from_rows(["a", "b"], self.ROWS, num_partitions=3)
        if filtered:
            table = table.filter(col("a") >= 4)
        return table.map_partitions(func, ["b", "sum"])

    @pytest.mark.parametrize("filtered", [False, True])
    def test_columnar_task_hands_over_and_takes_back_partitions(
        self, filtered
    ):
        from repro.engine.executor import SerialExecutor

        func = _BatchPrefixSum()
        with SerialExecutor() as executor:
            # cache(): the layout the last stage produced is kept.
            cached = self._run(executor, func, filtered).cache()
            assert executor.metrics.columnar_tasks == 1
        assert func.row_calls == 0 and len(func.batches) == 3
        assert all(isinstance(p, ColumnarPartition) for p in func.batches)
        assert all(
            isinstance(p, ColumnarPartition) for p in cached.plan.partitions
        )
        assert cached.collect() == self._expected(filtered)

    def test_a_filter_runs_on_what_the_partition_function_returned(self):
        from repro.engine.executor import SerialExecutor

        func = _BatchPrefixSum()
        with SerialExecutor() as executor:
            got = (
                self._run(executor, func, True)
                .filter(col("sum") > 20).select("sum").collect()
            )
        assert func.row_calls == 0
        expected = [(s,) for _tag, s in self._expected(True) if s > 20]
        assert got == expected and got

    def test_plain_partition_functions_stay_a_row_barrier(self):
        func = _BatchPrefixSum()
        ctx = EngineContext.serial()
        table = ctx.table_from_rows(["a", "b"], self.ROWS, num_partitions=3)
        out = table.map_partitions(func.__call__, ["b", "sum"]).collect()
        assert func.row_calls == 3 and func.batches == []
        assert len(out) == len(self.ROWS)
        assert ctx.executor.metrics.columnar_tasks == 0


class TestBatchApply:
    def test_batch_call_runs_once_per_partition(self):
        from repro.engine.expressions import apply

        func = _BatchDouble()
        ctx = EngineContext.serial()
        rows = [(i,) for i in range(40)]
        table = ctx.table_from_rows(["a"], rows, num_partitions=2)
        out = table.with_column("b", apply(func, "a")).select("b").collect()
        assert sorted(out) == [(2 * i,) for i in range(40)]
        # One whole-column call per partition, not one call per row.
        assert len(func.batch_columns) == 2
        assert sorted(sum(func.batch_columns, [])) == list(range(40))

    def test_batch_call_agrees_with_the_row_form(self):
        from repro.engine.expressions import apply

        rows = [(i,) for i in range(25)]
        table = EngineContext.serial().table_from_rows(["a"], rows)
        got = (
            table.with_column("b", apply(_BatchDouble(), "a"))
            .filter(col("b") > 10)
            .collect()
        )
        double = _BatchDouble()
        expected = [(a, double(a)) for (a,) in rows if double(a) > 10]
        assert got == expected
