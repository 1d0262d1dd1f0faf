"""The broadcast join (Algorithm 1 line 4's physical plan)."""

import pytest

from repro.engine import EngineContext, PlanError, col
from repro.engine.errors import SchemaError


@pytest.fixture
def left(ctx):
    return ctx.table_from_rows(
        ["t", "m_id", "b_id"],
        [(float(i), i % 3, "FC") for i in range(12)],
    )


@pytest.fixture
def rules(ctx):
    return ctx.table_from_rows(
        ["m_id", "rule"], [(0, "r0"), (1, "r1")]
    )


class TestInnerJoin:
    def test_matches_only(self, left, rules):
        out = left.join(rules, on="m_id")
        assert out.count() == 8  # m_id 0 and 1 each appear 4 times

    def test_output_columns(self, left, rules):
        out = left.join(rules, on="m_id")
        assert out.columns == ["t", "m_id", "b_id", "rule"]

    def test_multi_key_join(self, ctx):
        a = ctx.table_from_rows(
            ["m_id", "b_id", "x"], [(1, "FC", 10), (1, "BC", 20)]
        )
        b = ctx.table_from_rows(
            ["m_id", "b_id", "y"], [(1, "FC", 99)]
        )
        out = a.join(b, on=["m_id", "b_id"]).collect()
        assert out == [(1, "FC", 10, 99)]

    def test_one_to_many_replication(self, ctx):
        trace = ctx.table_from_rows(["m_id", "x"], [(1, "a"), (1, "b")])
        catalog = ctx.table_from_rows(
            ["m_id", "s_id"], [(1, "s1"), (1, "s2")]
        )
        out = trace.join(catalog, on="m_id")
        # Every trace row replicated once per rule -- the interpretation
        # join of Algorithm 1 line 4.
        assert out.count() == 4


    def test_matches_follow_right_row_order(self, ctx):
        trace = ctx.table_from_rows(["m_id"], [(1,)])
        catalog = ctx.table_from_rows(
            ["m_id", "s_id"], [(1, "s2"), (1, "s0"), (1, "s1")]
        )
        out = trace.join(catalog, on="m_id").collect()
        assert out == [(1, "s2"), (1, "s0"), (1, "s1")]

    def test_left_row_order_and_partitions_kept(self, left, rules):
        # The broadcast join maps each left partition on its own: row
        # order and partition boundaries are those of the left side.
        out = left.join(rules, on="m_id")
        expected = [
            [row + ("r{}".format(row[1]),) for row in part if row[1] < 2]
            for part in left.collect_partitions()
        ]
        assert out.collect_partitions() == expected

    def test_empty_right_side_yields_no_rows(self, left, ctx):
        empty = ctx.empty_table(["m_id", "rule"])
        out = left.join(empty, on="m_id")
        assert out.collect() == []
        assert out.columns == ["t", "m_id", "b_id", "rule"]

    def test_empty_left_side_yields_no_rows(self, ctx, rules):
        empty = ctx.empty_table(["t", "m_id"])
        out = empty.join(rules, on="m_id")
        assert out.collect() == []
        assert out.columns == ["t", "m_id", "rule"]

    def test_string_keys(self, ctx):
        a = ctx.table_from_rows(["b_id", "x"], [("FC", 1), ("K-LIN", 2)])
        b = ctx.table_from_rows(["b_id", "bus"], [("K-LIN", "LIN")])
        assert a.join(b, on="b_id").collect() == [("K-LIN", 2, "LIN")]

    def test_key_order_in_on_does_not_matter(self, ctx):
        a = ctx.table_from_rows(
            ["m_id", "b_id", "x"], [(1, "FC", 10), (1, "BC", 20)]
        )
        b = ctx.table_from_rows(["m_id", "b_id", "y"], [(1, "BC", 7)])
        forward = a.join(b, on=["m_id", "b_id"]).collect()
        backward = a.join(b, on=["b_id", "m_id"]).collect()
        assert forward == backward == [(1, "BC", 20, 7)]

    def test_filter_on_right_column_after_join(self, left, rules):
        out = left.join(rules, on="m_id").filter(col("rule") == "r1")
        rows = out.collect()
        assert len(rows) == 4
        assert {row[1] for row in rows} == {1}

    def test_join_of_cached_input_matches_uncached(self, left, rules):
        direct = left.join(rules, on="m_id").collect()
        assert left.cache().join(rules.cache(), on="m_id").collect() == direct


class TestJoinValidation:
    def test_unknown_key_raises(self, left, rules):
        with pytest.raises(SchemaError):
            left.join(rules, on="nope")

    def test_overlapping_value_columns_raise(self, ctx):
        a = ctx.table_from_rows(["k", "v"], [(1, 2)])
        b = ctx.table_from_rows(["k", "v"], [(1, 3)])
        with pytest.raises(SchemaError):
            a.join(b, on="k")

    def test_cross_context_join_raises(self, left):
        other = EngineContext.serial().table_from_rows(["m_id"], [(1,)])
        with pytest.raises(PlanError):
            left.join(other, on="m_id")


class TestBroadcastJoin:
    def test_small_right_side_broadcasts(self, ctx):
        a = ctx.table_from_rows(["k"], [(i,) for i in range(10)])
        b = ctx.table_from_rows(["k", "v"], [(1, "x")])
        before = ctx.executor.metrics.broadcast_joins
        a.join(b, on="k").collect()
        assert ctx.executor.metrics.broadcast_joins == before + 1
