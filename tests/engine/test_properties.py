"""Property-based tests: engine operators against reference semantics."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import EngineContext, col
from repro.engine.operations import split_evenly

rows_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=9),  # key
        st.integers(min_value=-100, max_value=100),  # value
    ),
    max_size=60,
)

partitions_strategy = st.integers(min_value=1, max_value=6)


def make_table(rows, num_partitions):
    ctx = EngineContext.serial(default_parallelism=3)
    return ctx, ctx.table_from_rows(
        ["k", "v"], rows, num_partitions=num_partitions
    )


@given(rows=rows_strategy, parts=partitions_strategy)
@settings(max_examples=60, deadline=None)
def test_filter_matches_list_comprehension(rows, parts):
    _ctx, t = make_table(rows, parts)
    got = sorted(t.filter(col("v") > 0).collect())
    expected = sorted(r for r in rows if r[1] > 0)
    assert got == expected


@given(rows=rows_strategy, parts=partitions_strategy)
@settings(max_examples=60, deadline=None)
def test_count_is_partition_invariant(rows, parts):
    _ctx, t = make_table(rows, parts)
    assert t.count() == len(rows)


@given(rows=rows_strategy, parts=partitions_strategy)
@settings(max_examples=60, deadline=None)
def test_sort_is_total_and_stable_multiset(rows, parts):
    _ctx, t = make_table(rows, parts)
    out = t.sort(["k", "v"]).collect()
    assert out == sorted(rows)


@given(
    left_rows=rows_strategy,
    right_keys=st.lists(st.integers(min_value=0, max_value=9), max_size=8, unique=True),
)
@settings(max_examples=60, deadline=None)
def test_inner_join_matches_nested_loop(left_rows, right_keys):
    ctx = EngineContext.serial()
    left = ctx.table_from_rows(["k", "v"], left_rows, num_partitions=2)
    right = ctx.table_from_rows(
        ["k", "tag"], [(k, "t{}".format(k)) for k in right_keys]
    )
    got = sorted(left.join(right, on="k").collect())
    expected = sorted(
        (k, v, "t{}".format(k)) for k, v in left_rows if k in set(right_keys)
    )
    assert got == expected


@given(rows=rows_strategy, parts=partitions_strategy)
@settings(max_examples=60, deadline=None)
def test_union_is_multiset_concatenation(rows, parts):
    ctx, t = make_table(rows, parts)
    other = ctx.table_from_rows(["k", "v"], rows[:5])
    assert sorted(t.union(other).collect()) == sorted(rows + rows[:5])


@given(
    items=st.lists(st.integers(), max_size=100),
    n=st.integers(min_value=1, max_value=12),
)
def test_split_evenly_partitions_without_loss(items, n):
    parts = split_evenly(items, n)
    assert len(parts) == n
    assert [x for p in parts for x in p] == items
    sizes = [len(p) for p in parts]
    assert max(sizes) - min(sizes) <= 1


@given(rows=rows_strategy)
@settings(max_examples=40, deadline=None)
def test_repartition_preserves_multiset(rows):
    ctx, t = make_table(rows, 2)
    for n in (1, 3, 5):
        assert sorted(t.repartition(n).collect()) == sorted(rows)
