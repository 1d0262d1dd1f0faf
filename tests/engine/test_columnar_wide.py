"""Wide stages fed by columnar narrow tasks: join, repartition, split.

A narrow chain hands the next stage a columnar partition; every wide
stage takes it as rows. Pins that the result is exactly the rows a
per-row reference builds from the inputs, row order included.
"""

from repro.engine import EngineContext, col
from repro.engine.executor import Executor


def _wide_ctx():
    return EngineContext(Executor(default_parallelism=4))


def _canon(rows):
    """Type- and NaN-stable row representation for equality checks."""
    return [tuple((type(v).__name__, repr(v)) for v in row) for row in rows]


def _join(left, right):
    """The inner join on the first column, per row: left order, then
    right order within a key."""
    return [l + r[1:] for l in left for r in right if r[0] == l[0]]


# -- end-to-end wide pipeline -------------------------------------------------

_TRACE = [(i % 7, i % 3, float(i)) for i in range(60)]
_RULES = [(k, "rule-{}".format(k)) for k in range(5)]
_JOINED = _join([row for row in _TRACE if row[2] >= 3.0], _RULES)


def _wide_pipeline(ctx):
    """filter -> broadcast join -> repartition -> split_by_key."""
    trace = ctx.table_from_rows(["k", "g", "v"], _TRACE, num_partitions=4)
    rules = ctx.table_from_rows(["k", "r"], _RULES, num_partitions=2)
    joined = (
        trace.filter(col("v") >= 3.0)
        .join(rules, on=["k"])
        .repartition(3)
    )
    groups = joined.split_by_key("g")
    return joined, groups


class TestWidePipeline:
    def test_wide_pipeline_matches_the_row_reference(self):
        ctx = _wide_ctx()
        joined, groups = _wide_pipeline(ctx)
        # Not just multiset equality: the join scans left rows in
        # order and appends matches, so even unsorted collects agree
        # row-for-row.
        assert _canon(joined.collect()) == _canon(_JOINED)
        assert {g: _canon(t.collect()) for g, t in groups.items()} == {
            g: _canon([row for row in _JOINED if row[1] == g])
            for g in (0, 1, 2)
        }

    def test_join_with_unmatched_rows(self):
        left_rows = [(i % 9, i) for i in range(30)]
        ctx = _wide_ctx()
        left = ctx.table_from_rows(["k", "v"], left_rows, num_partitions=3)
        right = ctx.table_from_rows(["k", "r"], _RULES, num_partitions=1)
        got = left.filter(col("v") >= 0).join(right, on=["k"]).collect()
        assert len(got) == 18
        assert _canon(got) == _canon(_join(left_rows, _RULES))

    def test_nan_join_keys_match_nothing(self):
        # A NaN probe key equals no catalog key; the filter in front of
        # the join hands over the other cells as they are.
        ctx = _wide_ctx()
        left = ctx.table_from_rows(
            ["k", "v"], [(float("nan"), 1), (2.0, 2), (3.0, 3)],
            num_partitions=1,
        )
        right = ctx.table_from_rows(
            ["k", "r"], [(2.0, "a"), (3.0, "b")], num_partitions=1
        )
        got = left.filter(col("v") >= 0).join(right, on=["k"]).collect()
        assert _canon(got) == _canon([(2.0, 2, "a"), (3.0, 3, "b")])

    def test_tuple_join_keys(self):
        # Object-typed (tuple) keys leave the filter as cells and are
        # hashed by the row join as they are.
        left_rows = [((i % 3, "x"), i) for i in range(20)]
        right_rows = [((i, "x"), "r{}".format(i)) for i in range(3)]
        ctx = _wide_ctx()
        left = ctx.table_from_rows(["k", "v"], left_rows, num_partitions=2)
        right = ctx.table_from_rows(
            ["k", "r"], right_rows, num_partitions=1
        )
        got = left.filter(col("v") >= 0).join(right, on=["k"]).collect()
        assert len(got) == 20
        assert _canon(got) == _canon(_join(left_rows, right_rows))

    def test_mixed_layout_join(self):
        # A union of a columnar task output and a bare row source hands
        # the join mixed-layout partitions; both sides become rows.
        a_rows = [(i % 4, i) for i in range(12)]
        b_rows = [(i % 4, -i) for i in range(1, 9)]
        ctx = _wide_ctx()
        a = ctx.table_from_rows(
            ["k", "v"], a_rows, num_partitions=2
        ).filter(col("v") >= 0)
        b = ctx.table_from_rows(["k", "v"], b_rows, num_partitions=2)
        rules = ctx.table_from_rows(["k", "r"], _RULES, num_partitions=1)
        got = a.union(b).join(rules, on=["k"]).collect()
        assert len(got) == 20
        assert _canon(got) == _canon(_join(a_rows + b_rows, _RULES))
