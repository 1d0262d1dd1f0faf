"""Table transformations and actions on the serial executor."""

import pytest

from repro.engine import PlanError, col
from repro.engine.errors import SchemaError
from repro.engine.expressions import apply


@pytest.fixture
def table(ctx):
    return ctx.table_from_rows(
        ["t", "m_id", "b_id"],
        [(float(i), i % 3, "FC" if i % 2 else "BC") for i in range(30)],
    )


class TestConstruction:
    def test_from_rows_counts(self, table):
        assert table.count() == 30

    def test_from_rows_respects_partition_count(self, ctx):
        t = ctx.table_from_rows(["x"], [(i,) for i in range(10)], num_partitions=4)
        assert len(t.collect_partitions()) == 4

    def test_empty_table(self, ctx):
        t = ctx.empty_table(["a", "b"])
        assert t.count() == 0
        assert t.columns == ["a", "b"]

    def test_row_width_mismatch_raises(self, ctx):
        with pytest.raises(PlanError):
            ctx.table_from_rows(["a", "b"], [(1,)])

    def test_ragged_row_deep_in_input_raises(self, ctx):
        # Regression: only rows[:1] used to be validated, so a ragged
        # row past the first surfaced later as an opaque IndexError.
        rows = [(i, i) for i in range(50)] + [(99,)]
        with pytest.raises(PlanError):
            ctx.table_from_rows(["a", "b"], rows)

    def test_ragged_row_error_names_the_row(self, ctx):
        with pytest.raises(PlanError, match="row 2"):
            ctx.table_from_rows(["a", "b"], [(1, 2), (3, 4), (5, 6, 7)])


class TestNarrowOps:
    def test_filter(self, table):
        assert table.filter(col("m_id") == 0).count() == 10

    def test_filter_chain(self, table):
        out = table.filter(col("m_id") == 0).filter(col("b_id") == "BC")
        assert out.count() == 5

    def test_select_projects_and_reorders(self, table):
        out = table.select("b_id", "t")
        assert out.columns == ["b_id", "t"]
        assert out.collect()[0] == ("BC", 0.0)

    def test_with_column_appends(self, table):
        out = table.with_column("t2", col("t") * 2)
        assert out.columns[-1] == "t2"
        assert out.collect()[0][-1] == 0.0

    def test_with_column_replaces_existing(self, table):
        out = table.with_column("t", col("t") + 100)
        assert out.collect()[0][0] == 100.0
        assert out.columns == table.columns

    def test_with_column_requires_expression(self, table):
        with pytest.raises(PlanError):
            table.with_column("x", 5)

    def test_flat_map(self, ctx):
        t = ctx.table_from_rows(["x"], [(1,), (2,)])
        out = t.flat_map(_duplicate_row, ["x", "copy"])
        assert sorted(out.collect()) == [(1, 0), (1, 1), (2, 0), (2, 1)]

    def test_map_partitions_keeps_schema_by_default(self, table):
        out = table.map_partitions(_take_first_two)
        assert out.columns == table.columns
        assert out.count() <= 2 * len(table.collect_partitions())

    @pytest.mark.parametrize("build", [
        pytest.param(lambda t: t.filter(col("nope") == 1), id="filter"),
        pytest.param(lambda t: t.select("t", "nope"), id="select"),
        pytest.param(lambda t: t.with_column("x", col("nope")),
                     id="with_column"),
        pytest.param(lambda t: t.sort(["t", "nope"]), id="sort"),
    ])
    def test_unknown_column_raises_at_plan_time(self, table, build):
        with pytest.raises(SchemaError, match="nope"):
            build(table)


class TestActions:
    def test_collect_returns_tuples(self, table):
        rows = table.collect()
        assert isinstance(rows[0], tuple)
        assert len(rows) == 30

    def test_cache_materializes(self, table):
        cached = table.filter(col("m_id") == 1).cache()
        assert cached.count() == 10
        # The cached plan is a Source, no recomputation path.
        from repro.engine.plan import Source

        assert isinstance(cached.plan, Source)

    def test_column_values(self, table):
        values = table.column_values("m_id")
        assert sorted(set(values)) == [0, 1, 2]

    def test_column_values_of_empty_table(self, ctx):
        assert ctx.empty_table(["a"]).column_values("a") == []

    def test_cache_keeps_partitioning(self, table):
        derived = table.filter(col("m_id") != 2)
        assert (
            derived.cache().collect_partitions()
            == derived.collect_partitions()
        )

    def test_count_agrees_with_collect_after_flat_map(self, ctx):
        t = ctx.table_from_rows(["x"], [(i,) for i in range(9)])
        out = t.flat_map(_keep_even_twice, ["x", "copy"])
        assert out.count() == len(out.collect()) == 10

    def test_repr_lists_columns(self, table):
        assert repr(table) == "Table(t, m_id, b_id)"


class TestUnion:
    def test_union_concatenates(self, ctx):
        a = ctx.table_from_rows(["x"], [(1,)])
        b = ctx.table_from_rows(["x"], [(2,)])
        assert sorted(a.union(b).collect()) == [(1,), (2,)]

    def test_union_schema_mismatch_raises(self, ctx):
        a = ctx.table_from_rows(["x"], [(1,)])
        b = ctx.table_from_rows(["y"], [(2,)])
        with pytest.raises(SchemaError):
            a.union(b)

    def test_union_is_left_then_right_partitions(self, ctx):
        a = ctx.table_from_rows(["x"], [(i,) for i in range(5)])
        b = ctx.table_from_rows(
            ["x"], [(i,) for i in range(10, 14)], num_partitions=2
        )
        out = a.union(b)
        assert out.collect_partitions() == (
            a.collect_partitions() + b.collect_partitions()
        )

    def test_union_with_empty_table(self, ctx):
        a = ctx.table_from_rows(["x", "y"], [(1, "a"), (2, "b")])
        empty = ctx.empty_table(["x", "y"])
        assert empty.union(a).collect() == a.collect()
        assert a.union(empty).collect() == a.collect()

    def test_union_column_order_must_match(self, ctx):
        a = ctx.table_from_rows(["x", "y"], [(1, 2)])
        b = ctx.table_from_rows(["y", "x"], [(2, 1)])
        with pytest.raises(SchemaError):
            a.union(b)


class TestSort:
    def test_sort_ascending(self, table):
        values = [r[0] for r in table.sort("t").collect()]
        assert values == sorted(values)

    def test_multi_key_sort(self, ctx):
        t = ctx.table_from_rows(
            ["g", "v"], [(1, 1), (0, 5), (1, 3), (0, 2)]
        )
        out = t.sort(["g", "v"]).collect()
        assert out == [(0, 2), (0, 5), (1, 1), (1, 3)]

    def test_sort_keeps_input_order_within_ties(self, ctx):
        t = ctx.table_from_rows(["k", "i"], [(i % 2, i) for i in range(20)])
        out = t.sort("k").collect()
        assert out == sorted(t.collect(), key=lambda row: row[0])

    def test_sort_of_empty_table(self, ctx):
        assert ctx.empty_table(["t"]).sort("t").collect() == []


class TestRepartition:
    def test_repartition_changes_partition_count(self, table):
        assert len(table.repartition(7).collect_partitions()) == 7

    def test_repartition_preserves_rows(self, table):
        assert sorted(table.repartition(2).collect()) == sorted(table.collect())

    def test_repartition_keeps_row_order_in_balanced_blocks(self, table):
        parts = table.repartition(4).collect_partitions()
        assert [len(p) for p in parts] == [8, 8, 7, 7]
        assert [r for p in parts for r in p] == table.collect()

    def test_repartition_to_one_keeps_every_row(self, table):
        parts = table.repartition(1).collect_partitions()
        assert len(parts) == 1
        assert sorted(parts[0]) == sorted(table.collect())


def _duplicate_row(row):
    return [(row[0], 0), (row[0], 1)]


def _keep_even_twice(row):
    return [(row[0], 0), (row[0], 1)] if row[0] % 2 == 0 else []


def _take_first_two(rows):
    return rows[:2]
