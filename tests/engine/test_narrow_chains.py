"""Narrow plan chains run as written, one task per partition.

Every chain of filters, projections and selects above a wide stage is
one :class:`~repro.engine.operations.PartitionTask`; no plan rewriting
happens first. These chains are the shapes a rewriting optimizer would
touch (adjacent filters, a filter over a projection, computed columns
read by later ones, identity and reordering selects, the
``Project(Filter(Project))`` of Algorithm 1 lines 5-6), and each is
checked against rows computed here in plain Python.
"""

import pytest

from repro.engine import ColumnarPartition, apply, col

ROWS = [
    (i, i * 2, "x" if i % 2 else "y", None if i % 5 == 0 else i % 7)
    for i in range(40)
]


@pytest.fixture
def table(ctx):
    return ctx.table_from_rows(["a", "b", "c", "n"], ROWS, num_partitions=4)


def _double(x):
    return 2 * x


def _add(x, y):
    return None if y is None else x + y


class TestFilterChains:
    def test_adjacent_filters(self, table):
        out = table.filter(col("a") > 5).filter(col("b") < 60)
        expected = [r for r in ROWS if r[0] > 5 and r[1] < 60]
        assert out.collect() == expected and expected

    def test_three_filters(self, table):
        out = (
            table.filter(col("a") > 2)
            .filter(col("b") < 70)
            .filter(col("c") == "x")
        )
        expected = [r for r in ROWS if r[0] > 2 and r[1] < 70 and r[2] == "x"]
        assert out.collect() == expected and expected

    def test_filters_over_nulls(self, table):
        out = table.filter(col("n").is_not_null()).filter(col("n") > 2)
        expected = [r for r in ROWS if r[3] is not None and r[3] > 2]
        assert out.collect() == expected and expected

    def test_filter_after_a_pure_projection(self, table):
        out = table.select("a", "c").filter(col("a") > 10)
        assert out.collect() == [(r[0], r[2]) for r in ROWS if r[0] > 10]

    def test_filter_on_a_computed_column(self, table):
        out = table.with_column("d", apply(_double, "a")).filter(
            col("d") > 20
        )
        assert out.collect() == [r + (2 * r[0],) for r in ROWS if r[0] > 10]


class TestProjectionChains:
    def test_a_computed_column_selected_with_an_input_column(self, table):
        out = table.with_column("d", apply(_double, "a")).select("d", "c")
        assert out.collect() == [(2 * r[0], r[2]) for r in ROWS]

    def test_chained_computed_columns(self, table):
        out = (
            table.with_column("d", col("a") + col("b"))
            .with_column("e", col("d") * 3)
            .select("e")
        )
        assert out.collect() == [((i + i * 2) * 3,) for i in range(40)]

    def test_identity_select_keeps_rows_and_order(self, table):
        assert table.select("a", "b", "c", "n").collect() == ROWS

    def test_reordering_select(self, table):
        out = table.select("b", "a", "c", "n")
        assert out.collect() == [(b, a, c, n) for a, b, c, n in ROWS]

    def test_select_of_a_select(self, table):
        out = table.filter(col("a") > 5).select("a", "c").select("a")
        assert out.collect() == [(r[0],) for r in ROWS if r[0] > 5]


class TestInterpretShape:
    """``Project(Filter(Project))``: two computed columns, a filter on
    the second and a narrow select, as in Algorithm 1 lines 5-6."""

    def test_rows(self, table):
        out = (
            table.with_column("d", apply(_double, "a"))
            .with_column("e", apply(_add, "d", "n"))
            .filter(col("e").is_not_null())
            .select("a", "e", "c")
        )
        expected = [
            (a, 2 * a + n, c) for a, _b, c, n in ROWS if n is not None
        ]
        assert out.collect() == expected
        assert 0 < len(expected) < 40  # the filter drops the NULL rows

    def test_each_computed_column_is_evaluated_once_per_row(self, table):
        calls = []

        def counted(x):
            calls.append(x)
            return 2 * x

        out = (
            table.with_column("d", apply(counted, "a"))
            .with_column("e", apply(_add, "d", "n"))
            .filter(col("e").is_not_null())
            .select("a", "e")
        )
        assert len(out.collect()) == 32
        # e reads the d column; it does not call counted again.
        assert sorted(calls) == list(range(40))


class TestChainsAroundWideStages:
    def test_chain_through_join_and_sort(self, ctx, table):
        weights = ctx.table_from_rows(
            ["a", "w"], [(i, i * 10) for i in range(0, 40, 3)]
        )
        out = (
            table.filter(col("a") > 4)
            .filter(col("b") < 70)
            .select("a", "b", "c")
            .join(weights, on="a")
            .sort(["c", "a"])
        )
        expected = sorted(
            ((a, b, c, a * 10) for a, b, c, _n in ROWS
             if a > 4 and b < 70 and a % 3 == 0),
            key=lambda r: (r[2], r[0]),
        )
        assert out.collect() == expected and expected

    def test_columnar_input_gives_the_rows_of_row_input(self, ctx, table):
        columnar = ctx.table_from_columnar(
            ["a", "b", "c", "n"],
            [ColumnarPartition.from_rows(ROWS[i:i + 10], 4)
             for i in range(0, 40, 10)],
        )
        for source in (table, columnar):
            out = (
                source.filter(col("n").is_not_null())
                .with_column("d", col("a") * col("n"))
                .select("c", "d")
            )
            assert out.collect() == [
                (c, a * n) for a, _b, c, n in ROWS if n is not None
            ]
