"""split_by_key: one routed shuffle stage splits a table by a key column."""

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.params import config_from_dict
from repro.core.pipeline import PreprocessingPipeline
from repro.engine import EngineContext, col
from repro.engine.executor import SerialExecutor
from repro.engine.errors import SchemaError
from repro.protocols.frames import BYTE_RECORD_COLUMNS
from repro.testing.differential import EXECUTORS
from repro.testing.generator import generate_journey_case


@pytest.fixture
def trace(ctx):
    rows = [
        (0.0, "wpos", "FC", 1),
        (0.1, "wvel", "FC", 2),
        (0.2, "wpos", "BC", 3),
        (0.3, "heat", "K-LIN", 4),
        (0.4, "wpos", "FC", 5),
        (0.5, "wvel", "BC", 6),
    ]
    return ctx.table_from_rows(
        ["t", "s_id", "b_id", "v"], rows, num_partitions=3
    )


class TestSplitByKeyBasics:
    def test_groups_equal_filter_reference(self, trace):
        groups = trace.split_by_key("s_id")
        for value, table in groups.items():
            expected = trace.filter(col("s_id") == value)
            assert table.collect() == expected.collect()

    def test_discovers_all_keys(self, trace):
        groups = trace.split_by_key("s_id")
        assert sorted(groups) == ["heat", "wpos", "wvel"]

    def test_group_order_and_partitioning_match_filter(self, trace):
        # Exact equivalence, not just multiset: same rows, same order,
        # same partition boundaries as the corresponding filter.
        groups = trace.split_by_key("s_id")
        for value, table in groups.items():
            expected = trace.filter(col("s_id") == value)
            assert (
                table.collect_partitions()
                == expected.collect_partitions()
            )

    def test_sibling_groups_co_partitioned(self, trace):
        groups = trace.split_by_key("s_id")
        counts = {len(t.collect_partitions()) for t in groups.values()}
        assert counts == {3}

    def test_requested_keys_kept_in_order(self, trace):
        groups = trace.split_by_key("s_id", keys=["wvel", "wpos"])
        assert list(groups) == ["wvel", "wpos"]

    def test_absent_requested_key_yields_empty_table(self, trace):
        groups = trace.split_by_key("s_id", keys=["wpos", "ghost"])
        assert groups["ghost"].count() == 0
        assert groups["ghost"].columns == ["t", "s_id", "b_id", "v"]

    def test_schema_preserved(self, trace):
        groups = trace.split_by_key("b_id")
        for table in groups.values():
            assert table.columns == ["t", "s_id", "b_id", "v"]

    def test_unknown_column_raises(self, trace):
        with pytest.raises(SchemaError):
            trace.split_by_key("nope")

    def test_empty_table_has_no_groups(self, ctx):
        t = ctx.empty_table(["a", "b"])
        assert t.split_by_key("a") == {}

    def test_none_key_value_forms_group(self, ctx):
        t = ctx.table_from_rows(["k", "v"], [(None, 1), ("x", 2), (None, 3)])
        groups = t.split_by_key("k")
        assert sorted(groups["x"].collect()) == [("x", 2)]
        assert sorted(groups[None].collect()) == [(None, 1), (None, 3)]

    def test_mixed_key_types_ordered_deterministically(self, ctx):
        t = ctx.table_from_rows(["k"], [(10,), ("a",), (2,), ("b",)])
        assert list(t.split_by_key("k")) == [2, 10, "a", "b"]

    def test_split_of_derived_plan(self, trace):
        derived = trace.filter(col("v") > 1).select("s_id", "v")
        groups = derived.split_by_key("s_id")
        assert sorted(groups["wpos"].collect()) == [("wpos", 3), ("wpos", 5)]

    def test_bool_int_collapse_matches_filter(self, ctx):
        # Python's 1 == True means an int-keyed filter also keeps bool
        # rows; the split routes by dict key, which collapses the same
        # way, so the group still equals the filter.
        t = ctx.table_from_rows(["k"], [(1,), (True,), (0,), (False,)])
        assert Counter(t.filter(col("k") == 1).collect()) == Counter(
            [(1,), (True,)]
        )
        groups = t.split_by_key("k")
        assert Counter(groups[1].collect()) == Counter([(1,), (True,)])

    def test_nan_filter_keeps_nothing(self, ctx):
        # NaN == NaN is false: an equality filter on NaN matches no row.
        t = ctx.table_from_rows(["x"], [(1.0,), (float("nan"),)])
        assert t.filter(col("x") == float("nan")).count() == 0


class TestSplitCounters:
    def test_one_shuffle_per_split(self, trace):
        metrics = trace.context.executor.metrics
        before = metrics.shuffles
        trace.split_by_key("s_id")
        assert metrics.splits == 1
        assert metrics.shuffles == before + 1
        assert metrics.split_groups == 3
        assert metrics.split_rows == 6

    def test_rows_shuffled_accounted(self, trace):
        metrics = trace.context.executor.metrics
        before = metrics.rows_shuffled
        trace.split_by_key("s_id")
        assert metrics.rows_shuffled == before + 6

    def test_every_split_is_its_own_routed_pass(self, trace):
        cached = trace.cache()
        metrics = trace.context.executor.metrics
        before = metrics.shuffles
        assert list(cached.split_by_key("s_id")) == \
            list(cached.split_by_key("s_id"))
        assert metrics.splits == 2
        assert metrics.shuffles == before + 2
        assert metrics.split_rows == 12

    def test_different_keys_are_separate_splits(self, trace):
        cached = trace.cache()
        metrics = trace.context.executor.metrics
        cached.split_by_key("s_id")
        cached.split_by_key("b_id")
        assert metrics.splits == 2
        assert metrics.split_groups == 6

    def test_filters_never_route(self, trace):
        cached = trace.cache()
        metrics = trace.context.executor.metrics
        for value in ("wpos", "wvel", "heat"):
            cached.filter(col("s_id") == value).collect()
        assert metrics.splits == 0


def _journey_table(ctx, seed, kind):
    """A generated journey's ``K_b`` (four partitions) or its ``K_s``."""
    case = generate_journey_case(random.Random(seed))
    k_b = ctx.table_from_rows(
        list(BYTE_RECORD_COLUMNS), list(case.records), num_partitions=4
    )
    if kind == "k_b":
        return k_b
    config = config_from_dict(case.params, case.database)
    return PreprocessingPipeline(config).extract_signals(k_b)


class TestSplitAcrossCombos:
    @pytest.mark.parametrize("executor", sorted(EXECUTORS))
    @pytest.mark.parametrize("kind, key", [("k_b", "m_id"), ("k_s", "s_id")])
    @pytest.mark.parametrize("seed", [11, 23, 47])
    def test_split_matches_filter_reference(self, executor, kind, key, seed):
        ctx = EngineContext(EXECUTORS[executor](4))
        table = _journey_table(ctx, seed, kind)
        all_rows = table.collect()
        index = table.columns.index(key)
        groups = table.split_by_key(key)
        expected_keys = sorted({row[index] for row in all_rows})
        assert sorted(groups) == expected_keys
        for value, group_table in groups.items():
            expected = Counter(
                row for row in all_rows if row[index] == value
            )
            assert Counter(group_table.collect()) == expected


def _row_split(partitions, key_index, keys=None):
    """The split as it was defined on rows: each row routed by its key
    cell into the group of the first equal key seen, group partition
    ``i`` holding input partition ``i``'s rows in order."""
    groups = {}
    for index, rows in enumerate(partitions):
        for row in rows:
            groups.setdefault(
                row[key_index], [[] for _unused in partitions]
            )[index].append(row)
    if keys is None:
        keys = sorted(groups, key=lambda value: (type(value).__name__, value))
    return {
        key: groups.get(key, [[] for _unused in partitions]) for key in keys
    }


#: Key cells that collide across types (1 == True, 0.0 == -0.0). NaN is
#: left out: NaN keys never equal one another, so two splits' groups
#: cannot be matched by key.
_KEYS = st.one_of(
    st.integers(-2, 2), st.booleans(), st.none(),
    st.sampled_from(["FC", "BC", ""]), st.sampled_from([0.0, -0.0, 1.0]),
)
_CELLS = st.one_of(st.floats(), st.integers(), st.text(max_size=2))


class TestColumnarSplitEqualsRowSplit:
    @settings(max_examples=120, deadline=None)
    @given(
        rows=st.lists(st.tuples(_KEYS, _CELLS, st.floats()), max_size=30),
        parts=st.integers(1, 4),
        layout=st.sampled_from(["rows", "columnar", "mixed"]),
        pick=st.one_of(st.none(), st.lists(_KEYS, max_size=3)),
    )
    def test_same_groups_rows_order_and_partitions(
        self, rows, parts, layout, pick
    ):
        ctx = EngineContext.serial()
        columns = ["k", "v", "t"]
        head, tail = rows[: len(rows) // 2], rows[len(rows) // 2 :]
        if layout == "rows":
            table = ctx.table_from_rows(columns, rows, num_partitions=parts)
        elif layout == "columnar":
            blocks = [rows[i::parts] for i in range(parts)]
            table = ctx.table_from_columnar(columns, blocks)
        else:
            table = ctx.table_from_rows(columns, head, num_partitions=parts)
            table = table.union(ctx.table_from_columnar(columns, [tail]))
        keys = None if pick is None else list(dict.fromkeys(pick))
        expected = _row_split(table.collect_partitions(), 0, keys)
        actual = {
            key: group.collect_partitions()
            for key, group in table.split_by_key("k", keys=keys).items()
        }
        assert repr(list(actual)) == repr(list(expected))
        assert repr(list(actual.values())) == repr(list(expected.values()))
