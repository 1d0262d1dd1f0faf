"""Forward fill: the windowed operator the state representation issues."""

from repro.engine.window import ForwardFill


def _forward_fill(table, order_by, columns):
    ordered = table.sort([order_by])
    fill = ForwardFill(tuple(ordered.schema.index_of(c) for c in columns))
    return ordered.sorted_map_partitions(fill, carry_rows=100_000)


class TestForwardFill:
    def test_fills_none_from_previous(self, ctx):
        t = ctx.table_from_rows(
            ["t", "a", "b"],
            [(1, "x", None), (2, None, "y"), (3, None, None)],
        )
        out = _forward_fill(t, "t", ["a", "b"]).collect()
        assert out == [(1, "x", None), (2, "x", "y"), (3, "x", "y")]

    def test_leading_none_stays_none(self, ctx):
        t = ctx.table_from_rows(["t", "a"], [(1, None), (2, "v")])
        out = _forward_fill(t, "t", ["a"]).collect()
        assert out[0][1] is None

    def test_fill_respects_sort_order(self, ctx):
        t = ctx.table_from_rows(
            ["t", "a"], [(3, None), (1, "first"), (2, None)]
        )
        out = _forward_fill(t, "t", ["a"]).collect()
        assert [r[1] for r in out] == ["first", "first", "first"]

    def test_later_value_replaces_earlier(self, ctx):
        t = ctx.table_from_rows(
            ["t", "a"], [(1, "x"), (2, None), (3, "y"), (4, None)],
            num_partitions=2,
        )
        out = _forward_fill(t, "t", ["a"]).collect()
        assert [r[1] for r in out] == ["x", "x", "y", "y"]


class TestForwardFillFunction:
    """The partition function on its own: what the carry contributes."""

    def test_carry_seeds_the_partition(self):
        fill = ForwardFill((1,))
        assert fill([(3, None)], [(1, "a"), (2, "b")]) == [(3, "b")]

    def test_none_in_carry_keeps_the_earlier_value(self):
        fill = ForwardFill((1,))
        assert fill([(3, None)], [(1, "a"), (2, None)]) == [(3, "a")]

    def test_columns_fill_independently(self):
        fill = ForwardFill((1, 2))
        out = fill([(2, None, "q"), (3, None, None)], [(1, "p", None)])
        assert out == [(2, "p", "q"), (3, "p", "q")]

    def test_unlisted_columns_stay_none(self):
        fill = ForwardFill((1,))
        out = fill([(1, "a", "u"), (2, None, None)], [])
        assert out == [(1, "a", "u"), (2, "a", None)]

    def test_falsy_values_are_not_missing(self):
        fill = ForwardFill((1,))
        out = fill([(1, 5), (2, 0), (3, None), (4, False), (5, None)], [])
        assert out == [(1, 5), (2, 0), (3, 0), (4, False), (5, False)]

    def test_empty_partition_yields_no_rows(self):
        assert ForwardFill((1,))([], [(1, "a")]) == []
