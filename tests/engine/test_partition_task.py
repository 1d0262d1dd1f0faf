"""The one narrow task against the row semantics of bound expressions.

:class:`~repro.engine.operations.PartitionTask` runs every narrow chain.
Its reference here is written from the bound expressions' own
``__call__``: steps in order, a filter keeps the rows its predicate is
true for, a projection evaluates one expression over every row before
the next (expression-major is the engine's semantics), and a flat-map
or partition function gets the row list. Hypothesis draws expression
trees and chains over every column layout; the edge cases the draws
rarely hit (NaN, short-circuits, unhashable probes), the cases of
:func:`~repro.engine.operations.evaluate`, the layouts a chain leaves,
and the packed-plane and ``emit`` contracts are pinned by hand.
"""

import math
import re
from array import array
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.engine import EngineContext, ExecutionError, apply, col
from repro.engine.columnar import BytesColumn, ColumnarPartition, DictColumn
from repro.engine.executor import Executor
from repro.engine.expressions import (
    BoundAnd,
    BoundApply,
    BoundBinary,
    BoundColumn,
    BoundInSet,
    BoundLiteral,
    BoundOr,
    BoundUnary,
    lit,
)
from repro.engine.operations import (
    FilterStep,
    FlatMapStep,
    MapPartitionStep,
    PartitionTask,
    ProjectStep,
    columns_read,
    evaluate,
)
from repro.engine.schema import Schema

NAN = float("nan")


def reference(steps, rows):
    """The chain over *rows*, each expression called on each row."""
    rows = list(rows)
    for step in steps:
        if isinstance(step, FilterStep):
            rows = [row for row in rows if step.predicate(row)]
        elif isinstance(step, ProjectStep):
            columns = [[e(row) for row in rows] for e in step.exprs]
            rows = list(zip(*columns)) if columns else [()] * len(rows)
        elif isinstance(step, FlatMapStep):
            rows = [out for row in rows for out in step.func(row)]
        else:
            rows = list(step.func(rows))
    return rows


def _outcome(run):
    """``("rows", canonical rows)`` or ``("raises", exception type)``."""
    try:
        out = run()
    except Exception as exc:  # noqa: BLE001 -- the type is the outcome
        return "raises", type(exc)
    if isinstance(out, ColumnarPartition):
        out = out.to_rows()
    return "rows", _canon(out)


def _canon(rows):
    """Type- and NaN-stable rows (``repr`` tells -0.0 from 0.0)."""
    return [tuple((type(v).__name__, repr(v)) for v in row) for row in rows]


# -- apply callables and partition functions (module level: picklable) -------

class _Sum:
    """First plus last argument: raises on mixed types."""

    def __call__(self, *cells):
        return cells[0] + cells[-1]

    def __eq__(self, other):
        return type(self) is type(other)

    __hash__ = object.__hash__


class _Cells(_Sum):
    def __call__(self, *cells):
        return cells


class _Truthy(_Sum):
    def __call__(self, *cells):
        return all(cells)


class _Batched:
    """The same callable publishing ``batch_call``."""

    def batch_call(self, *columns):
        return [self(*cells) for cells in zip(*columns)]


class _BatchSum(_Batched, _Sum):
    pass


class _BatchCells(_Batched, _Cells):
    pass


class _BatchTruthy(_Batched, _Truthy):
    pass


APPLY_FUNCS = (
    _Sum(), _Cells(), _Truthy(), _BatchSum(), _BatchCells(), _BatchTruthy(),
)


def _dup_row(row):
    return [row, row]


def _odd_rows(row):
    return [row] if len(repr(row)) % 2 else []


def _widen(rows):
    """A plain partition function adding a column: a row barrier."""
    return [row + (len(row),) for row in rows]


class _Reverse:
    """A partition function with the whole-partition ``batch_call``."""

    def __call__(self, rows):
        return list(reversed(rows))

    def batch_call(self, partition):
        return partition.gather(range(len(partition) - 1, -1, -1))


# -- strategies ---------------------------------------------------------------

_OBJECTS = st.one_of(
    st.none(), st.just(NAN), st.integers(-3, 3), st.floats(-2, 2),
    st.sampled_from(["", "a", "b"]), st.booleans(), st.just([1]),
)
_LITERALS = st.one_of(
    st.none(), st.just(NAN), st.integers(-3, 3), st.just(0.0), st.just(2.5),
    st.sampled_from(["", "a"]), st.booleans(),
)
_HASHABLE = st.one_of(
    st.none(), st.integers(-3, 3), st.just(0.0), st.sampled_from(["", "a"]),
    st.booleans(), st.just(b"\x01"),
)


def _column(kind, n):
    """One column of *n* cells in layout *kind*."""
    if kind == "q":
        return st.lists(st.integers(-3, 3), min_size=n, max_size=n).map(
            lambda cells: array("q", cells)
        )
    if kind == "d":
        floats = st.one_of(st.floats(-2, 2), st.sampled_from([NAN, -0.0]))
        return st.lists(floats, min_size=n, max_size=n).map(
            lambda cells: array("d", cells)
        )
    if kind == "bytes":
        return st.lists(st.binary(max_size=3), min_size=n, max_size=n).map(
            BytesColumn.from_values
        )
    if kind == "dict":
        text = st.sampled_from(["", "a", "b"])
        return st.lists(text, min_size=n, max_size=n).map(
            DictColumn.from_values
        )
    return st.lists(_OBJECTS, min_size=n, max_size=n)


@st.composite
def partitions(draw):
    n = draw(st.integers(0, 6))
    kinds = draw(st.lists(
        st.sampled_from(["q", "d", "bytes", "dict", "obj"]), max_size=4
    ))
    return ColumnarPartition([draw(_column(k, n)) for k in kinds], n)


def expressions(width):
    leaves = [st.builds(BoundLiteral, _LITERALS)]
    if width:
        index = st.integers(0, width - 1)
        leaves.append(st.builds(BoundColumn, index))
        leaves.append(st.builds(
            BoundApply, st.sampled_from(APPLY_FUNCS),
            st.lists(index, min_size=1, max_size=2).map(tuple),
        ))

    def extend(children):
        return st.one_of(
            st.builds(
                BoundBinary,
                st.sampled_from(
                    ["eq", "ne", "lt", "le", "gt", "ge",
                     "add", "sub", "mul", "div"]
                ),
                children, children,
            ),
            st.builds(BoundAnd, children, children),
            st.builds(BoundOr, children, children),
            st.builds(
                BoundUnary, st.sampled_from(["not", "is_null", "is_not_null"]),
                children,
            ),
            st.builds(
                BoundInSet, children, st.frozensets(_HASHABLE, max_size=3)
            ),
        )

    return st.recursive(st.one_of(leaves), extend, max_leaves=5)


@st.composite
def chains(draw, width):
    """A narrow chain of steps from *width* input columns."""
    steps = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(
            ["filter", "filter", "project", "project", "flat_map",
             "partition", "batch_partition"]
        ))
        if kind == "filter":
            steps.append(FilterStep(draw(expressions(width))))
        elif kind == "project":
            exprs = draw(st.lists(expressions(width), max_size=3))
            steps.append(ProjectStep(tuple(exprs)))
            width = len(exprs)
        elif kind == "flat_map":
            func = draw(st.sampled_from([_dup_row, _odd_rows]))
            steps.append(FlatMapStep(func, width))
        elif kind == "partition":
            width += 1
            steps.append(MapPartitionStep(_widen, width))
        else:
            steps.append(MapPartitionStep(_Reverse(), width))
    return tuple(steps)


# -- the property -------------------------------------------------------------

@settings(max_examples=120, deadline=None)
@given(data=st.data(), partition=partitions())
def test_partition_task_equals_the_row_reference(data, partition):
    steps = data.draw(chains(partition.width))
    emit = data.draw(st.sampled_from(["rows", "partition"]))
    task = PartitionTask(steps, partition.width, emit)
    rows = partition.to_rows()
    expected = _outcome(lambda: reference(steps, rows))
    assert _outcome(lambda: task(partition)) == expected
    assert _outcome(lambda: task(list(rows))) == expected


# -- edge cases ---------------------------------------------------------------

def _bind(expr, *names):
    return expr.bind(Schema.of(*names))


def _run(steps, rows, emit="rows"):
    width = len(rows[0]) if rows else 1
    return PartitionTask(tuple(steps), width, emit)(list(rows))


def _assert_reference(steps, rows):
    out = _run(steps, rows)
    assert _canon(out) == _canon(reference(steps, rows))
    return out


def _boom(*_args):
    raise AssertionError("short-circuit violated: operand was evaluated")


def _halve(x):
    return x / 2.0


def _sorted_plus_marker(rows):
    """A partition map that emits a row even for an empty partition."""
    return sorted(rows) + [(-1,)]


class TestEdgeExpressions:
    def test_nan_comparisons(self):
        rows = [(NAN,), (1.0,), (-1.0,), (0.0,), (NAN,)]
        for expr in (
            col("x") < lit(0.5),
            col("x") >= lit(0.5),
            col("x") == col("x"),
            col("x") != col("x"),
        ):
            _assert_reference([FilterStep(_bind(expr, "x"))], rows)
        out = _run([ProjectStep((_bind(col("x") * lit(1.0), "x"),))], rows)
        assert math.isnan(out[0][0]) and len(out) == 5

    def test_is_null_on_mixed_type_column(self):
        rows = [(None,), (0,), ("",), (NAN,), ("x",), (False,)]
        kept = _assert_reference(
            [FilterStep(_bind(col("x").is_null(), "x"))], rows
        )
        assert kept == [(None,)]
        kept = _assert_reference(
            [FilterStep(_bind(col("x").is_not_null(), "x"))], rows
        )
        assert len(kept) == 5

    def test_in_set_membership_follows_python_equality(self):
        # 1 == 1.0 == True: the bool/int crossover included.
        rows = [(1,), (1.0,), (True,), (2,), ("1",), (None,)]
        kept = _assert_reference(
            [FilterStep(_bind(col("x").is_in([1]), "x"))], rows
        )
        assert kept == [(1,), (1.0,), (True,)]

    def test_unhashable_in_set_probe_raises(self):
        steps = (FilterStep(_bind(col("x").is_in([1]), "x")),)
        with pytest.raises(TypeError):
            _run(steps, [([1, 2],)])

    def test_division_by_zero_raises(self):
        steps = (ProjectStep((_bind(col("a") / col("b"), "a", "b"),)),)
        with pytest.raises(ZeroDivisionError):
            _run(steps, [(1.0, 0.0)])

    def test_and_skips_its_right_operand(self):
        expr = (col("x") > lit(100)) & apply(_boom, "x")
        assert _run([FilterStep(_bind(expr, "x"))], [(1,), (2,)]) == []

    def test_or_skips_its_right_operand(self):
        rows = [(1,), (2,)]
        expr = (col("x") < lit(100)) | apply(_boom, "x")
        assert _run([FilterStep(_bind(expr, "x"))], rows) == rows

    def test_and_or_return_plain_bools(self):
        rows = [("a", "b"), ("", "b"), ("a", ""), ("", "")]
        expr = col("x").is_not_null() & (col("y") != lit(""))
        out = _assert_reference([ProjectStep((_bind(expr, "x", "y"),))], rows)
        assert all(isinstance(v, bool) for (v,) in out)


class TestRowBarriers:
    """Flat-maps and plain partition maps take the row list."""

    def _flat_map_chain(self, func):
        return [
            FilterStep(_bind(col("a") > lit(4), "a", "b")),
            FlatMapStep(func, 2),
            ProjectStep((
                _bind(col("a") + col("b"), "a", "b"),
                _bind(apply(_halve, "b"), "a", "b"),
            )),
            FilterStep(_bind(col("a") < lit(60.0), "a", "h")),
        ]

    def test_filter_flat_map_project_filter(self):
        rows = [(i, i * 0.5) for i in range(50)]
        assert _assert_reference(self._flat_map_chain(_dup_row), rows)

    def test_project_map_partitions_filter(self):
        rows = [(i,) for i in (5, 3, 9, 1, 7)]
        steps = [
            ProjectStep((_bind(col("a") * lit(10), "a"),)),
            MapPartitionStep(sorted, 1),
            FilterStep(_bind(col("a") >= lit(30), "a")),
        ]
        assert _assert_reference(steps, rows) == [(30,), (50,), (70,), (90,)]

    def test_empty_partition_after_a_flat_map(self):
        # The flat-map drops every row: the steps behind it see an empty
        # partition whose width only the step's out_width knows.
        rows = [(i, i * 0.5) for i in range(50)]
        steps = self._flat_map_chain(lambda row: [])
        assert _assert_reference(steps, rows) == []
        part = _run(steps, rows, emit="partition")
        assert isinstance(part, ColumnarPartition)
        assert (len(part), part.width) == (0, 2)

    def test_an_empty_input_partition_still_runs_barriers(self):
        steps = (
            FilterStep(_bind(col("a") > lit(4), "a")),
            MapPartitionStep(_sorted_plus_marker, 1),
            ProjectStep((_bind(col("a") * lit(10), "a"),)),
        )
        assert PartitionTask(steps, 1)([]) == reference(steps, []) == [(-10,)]

    def test_a_chain_ending_in_a_barrier_emits_its_rows(self):
        rows = [(i,) for i in range(6)]
        steps = [
            FilterStep(_bind(col("a") >= lit(2), "a")),
            FlatMapStep(_dup_row, 1),
        ]
        assert _run(steps, rows, emit="partition") == reference(steps, rows)

    def test_columnar_input_through_a_barrier(self):
        rows = [(i, i * 0.5) for i in range(50)]
        steps = tuple(self._flat_map_chain(_dup_row))
        part = ColumnarPartition.from_rows(rows, 2)
        assert PartitionTask(steps, 2)(part) == reference(steps, rows)

    def test_engine_flat_map_chain_is_one_columnar_task(self):
        rows = [(i, i * 0.5) for i in range(40)]
        executor = Executor()
        got = (
            EngineContext(executor).table_from_rows(["a", "b"], rows)
            .filter(col("a") > 30)
            .flat_map(_dup_row, ["a", "b"])
            .filter(col("b") < 19.0)
            .collect()
        )
        assert executor.metrics.columnar_tasks == 1
        assert got == [
            row for row in rows if row[0] > 30 and row[1] < 19.0
            for _copy in (0, 1)
        ]


class _KeyIn:
    """Two-column apply callable publishing the whole-column form."""

    def __init__(self, keys):
        self.keys = keys
        self.batches = []

    def __call__(self, a, b):
        return (a, b) in self.keys

    def batch_call(self, a, b):
        self.batches.append(len(a))
        return [(x, y) in self.keys for x, y in zip(a, b)]


class TestFilterMasks:
    ROWS = [
        (i % 4, "xy"[i % 2], value)
        for i, value in enumerate(
            [0, 1, "", "x", None, True, False, 2.5, 0.0, [], [1], -1]
        )
    ]

    def _filtered(self, predicate):
        table = EngineContext.serial().table_from_rows(
            ["a", "b", "c"], self.ROWS, num_partitions=2
        )
        return table.filter(predicate).collect()

    def test_a_bare_column_is_its_own_mask(self):
        assert self._filtered(col("c")) == [
            row for row in self.ROWS if row[2]
        ]

    def test_a_batch_apply_is_one_whole_column_call(self):
        member = _KeyIn(frozenset({(0, "x"), (2, "x"), (3, "y")}))
        got = self._filtered(apply(member, "a", "b"))
        assert member.batches == [6, 6]  # once per partition, no row call
        expected = [row for row in self.ROWS if member(row[0], row[1])]
        assert got == expected and expected


class TestEvaluate:
    """The four cases of :func:`evaluate`, one whole column each."""

    def test_a_column_reference_is_the_buffer_itself(self):
        buffer = array("q", [3, 1, 2])
        assert evaluate(BoundColumn(1), [[0, 0, 0], buffer], 3) is buffer

    def test_a_literal_is_replicated(self):
        assert evaluate(BoundLiteral("a"), [array("q", [1, 2])], 2) == \
            ["a", "a"]

    def test_a_batch_apply_is_one_call_on_its_argument_columns(self):
        member = _KeyIn(frozenset({(1, "x")}))
        a, b = array("q", [1, 1, 2]), ["x", "y", "x"]
        out = evaluate(BoundApply(member, (0, 1)), [a, b], 3)
        assert out == [True, False, False]
        assert member.batches == [3]

    def test_anything_else_is_called_on_each_row(self):
        seen = []

        def record(*cells):
            seen.append(cells)
            return len(seen)

        columns = [array("q", [5, 6]), ["p", "q"]]
        assert evaluate(BoundApply(record, (1, 0)), columns, 2) == [1, 2]
        assert seen == [("p", 5), ("q", 6)]

    def test_zero_width_rows_are_empty_tuples(self):
        expr = BoundApply(_Cells(), ())
        assert evaluate(expr, [], 3) == [(), (), ()]

    @pytest.mark.parametrize("expr, read", [
        (BoundColumn(2), {2}),
        (BoundLiteral(7), set()),
        (BoundApply(_Cells(), (3, 0)), {0, 3}),
        (BoundUnary("is_null", BoundColumn(1)), {1}),
        (BoundInSet(BoundColumn(4), frozenset({1})), {4}),
        (BoundBinary("add", BoundColumn(0), BoundLiteral(1)), {0}),
        (BoundOr(BoundColumn(1), BoundAnd(BoundColumn(2), BoundColumn(1))),
         {1, 2}),
        (len, None),
        (BoundAnd(BoundColumn(0), len), None),
    ], ids=["column", "literal", "apply", "unary", "in-set", "binary",
            "and-or", "unknown", "unknown-operand"])
    def test_columns_read(self, expr, read):
        assert columns_read(expr) == read

    def test_a_row_holds_only_the_columns_its_expression_reads(self):
        class Unreadable(list):
            def __iter__(self):
                raise AssertionError("an unread column was read")

        columns = [array("q", [1, 5, 3]), Unreadable("xyz"), ["a", None, "c"]]
        expr = BoundAnd(
            BoundBinary("lt", BoundColumn(0), BoundLiteral(4)),
            BoundUnary("is_not_null", BoundColumn(2)),
        )
        assert evaluate(expr, columns, 3) == [True, False, True]
        # An expression of unknown type gets whole rows.
        columns[1] = list("xyz")
        assert evaluate(lambda row: row, columns, 3) == [
            (1, "x", "a"), (5, "y", None), (3, "z", "c"),
        ]


class TestColumnLayout:
    """Which layout a chain leaves its partition in."""

    def test_an_all_true_mask_keeps_every_buffer(self):
        plane = BytesColumn.from_values([b"a", b"b"])
        part = ColumnarPartition([array("q", [1, 2]), plane], 2)
        steps = (FilterStep(_bind(col("k") > lit(0), "k", "p")),)
        out = PartitionTask(steps, 2, "partition")(part)
        assert out.columns[0] is part.columns[0]
        assert out.columns[1] is plane

    def test_an_all_false_mask_keeps_the_width(self):
        part = ColumnarPartition.from_rows([(1, "a"), (2, "b")], 2)
        steps = (FilterStep(_bind(col("k") > lit(5), "k", "s")),)
        out = PartitionTask(steps, 2, "partition")(part)
        assert (len(out), out.width, out.to_rows()) == (0, 2, [])

    def test_a_chain_of_barriers_never_transposes_rows(self):
        rows = [(1,), (2,)]
        steps = (FlatMapStep(_dup_row, 1), MapPartitionStep(_widen, 2))
        for emit in ("rows", "partition"):
            out = PartitionTask(steps, 1, emit)(list(rows))
            assert out == [(1, 1), (1, 1), (2, 1), (2, 1)]

    def test_a_projection_to_no_columns_keeps_the_row_count(self):
        steps = (ProjectStep(()),)
        assert _run(steps, [(1,), (2,), (3,)]) == [(), (), ()]
        out = _run(steps, [(1,), (2,)], emit="partition")
        assert (len(out), out.width) == (2, 0)

    def test_a_filter_on_no_columns_counts_the_rows_it_keeps(self):
        rows = [()] * 4
        for keep, expected in ((lit(True), rows), (lit(False), [])):
            steps = (FilterStep(_bind(keep)), ProjectStep(()))
            assert PartitionTask(steps, 0)(list(rows)) == expected


class TestPackedPlanes:
    def test_a_filter_moves_a_packed_plane_without_decoding_it(self):
        decoded = []

        def decode(cell):
            decoded.append(cell)
            return bytes(cell)

        plane = BytesColumn.from_values([b"a", b"bb", b"", b"ccc"], decode)
        part = ColumnarPartition([array("q", [0, 2, 3, 0]), plane], 4)
        # The predicate reads its own columns only, whichever way it is
        # evaluated: a bare column, an apply with batch_call, or a
        # generic expression whose rows hold None for unread columns.
        for predicate in (
            col("k"),
            apply(_BatchTruthy(), "k"),
            col("k") > lit(1),
            ~col("k").is_null() & col("k").is_in([2, 3]),
            apply(bool, "k"),
        ):
            steps = (FilterStep(_bind(predicate, "k", "p")),)
            out = PartitionTask(steps, 2, "partition")(part)
            assert isinstance(out.columns[1], BytesColumn)
            assert decoded == []
            assert list(out.columns[1]) == [b"bb", b""]
            del decoded[:]

    def test_emit_partition_keeps_columns_and_rows_lands_them(self):
        rows = [(i, "ab"[i % 2]) for i in range(6)]
        part = ColumnarPartition.from_rows(rows, 2)
        steps = (
            FilterStep(_bind(col("k") > lit(1), "k", "s")),
            ProjectStep((_bind(col("s"), "k", "s"),)),
        )
        out = PartitionTask(steps, 2, "partition")(part)
        assert isinstance(out, ColumnarPartition)
        # A pass-through column is the filtered buffer itself.
        assert out.to_rows() == PartitionTask(steps, 2)(part) == [
            ("a",), ("b",), ("a",), ("b",),
        ]


def _pipeline(ctx):
    rows = [
        (float(i), i % 7, "id%d" % (i % 5), i % 3 == 0) for i in range(200)
    ]
    t = ctx.table_from_rows(["t", "m", "name", "flag"], rows)
    return (
        t.filter((col("m") > 1) & col("name").is_in(["id1", "id2", "id3"]))
        .with_column("scaled", col("t") * lit(0.25) + col("m"))
        .with_column("sum", apply(_BatchSum(), "t", "m"))
        .filter(~col("flag"))
        .flat_map(_dup_row, ["t", "m", "name", "flag", "scaled", "sum"])
        .select("name", "scaled", "sum")
    )


def _pipeline_rows():
    return [
        (name, t * 0.25 + m, t + m)
        for t, m, name, flag in (
            (float(i), i % 7, "id%d" % (i % 5), i % 3 == 0)
            for i in range(200)
        )
        if m > 1 and name in ("id1", "id2", "id3") and not flag
        for _copy in (0, 1)
    ]


class TestExecutors:
    def test_serial_matches_the_row_reference(self):
        assert _pipeline(EngineContext.serial()).collect() == _pipeline_rows()

    @pytest.mark.parametrize("partitions", [1, 4, 16])
    def test_partition_count_matches_the_row_reference(self, partitions):
        ctx = EngineContext.serial(default_parallelism=partitions)
        got = _pipeline(ctx).repartition(partitions).collect()
        assert got == _pipeline_rows()

    def test_a_task_error_is_an_execution_error(self):
        t = EngineContext.serial().table_from_rows(["a", "b"], [(1.0, 0.0)])
        with pytest.raises(ExecutionError):
            t.with_column("q", col("a") / col("b")).collect()


def test_no_engine_path_reads_the_process_environment():
    pattern = re.compile(r"os\.environ|getenv|\benviron\b")
    offenders = [
        str(path)
        for path in Path(repro.__file__).parent.rglob("*.py")
        if pattern.search(path.read_text(encoding="utf-8"))
    ]
    assert offenders == []
