"""Wide stages fed by columnar kernels: join, repartition, split.

On the production path a narrow chain hands the next stage a columnar
partition; every wide stage takes it as rows. Pins that the result is
exactly the reference path's, row order included.
"""

import pytest

from repro.engine import EngineContext, col
from repro.engine.executor import SerialExecutor


def _wide_ctx(**overrides):
    kwargs = dict(default_parallelism=4)
    kwargs.update(overrides)
    return EngineContext(SerialExecutor(**kwargs))


def _on_both_paths(build):
    """``build(ctx)`` on the production and the reference executor."""
    results = []
    for ctx in (_wide_ctx(), _wide_ctx(columnar=False)):
        with ctx:
            results.append(build(ctx))
    return results


def _canon(rows):
    """Type- and NaN-stable row representation for equality checks."""
    return [tuple((type(v).__name__, repr(v)) for v in row) for row in rows]


# -- end-to-end wide pipeline -------------------------------------------------

_TRACE = [(i % 7, i % 3, float(i)) for i in range(60)]
_RULES = [(k, "rule-{}".format(k)) for k in range(5)]


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


class TestWidePipelineParity:
    def test_columnar_wide_matches_reference(self):
        outputs = {}
        for name, ctx in (
            ("wide", _wide_ctx()),
            ("reference", _wide_ctx(columnar=False)),
        ):
            with ctx:
                joined, groups = _wide_pipeline(ctx)
                outputs[name] = (
                    sorted(_canon(joined.collect())),
                    {g: _canon(t.collect()) for g, t in groups.items()},
                )
        assert outputs["wide"] == outputs["reference"]

    def test_broadcast_join_order_is_identical_to_row_path(self):
        # Not just multiset equality: the join scans left rows in order
        # and appends matches, so even unsorted collects agree
        # row-for-row.
        with _wide_ctx() as wide, _wide_ctx(columnar=False) as row:
            wide_rows = _wide_pipeline(wide)[0].collect()
            row_rows = _wide_pipeline(row)[0].collect()
        assert _canon(wide_rows) == _canon(row_rows)

    def test_join_parity_with_unmatched_rows(self):
        def inner_join(ctx):
            left = ctx.table_from_rows(
                ["k", "v"], [(i % 9, i) for i in range(30)], num_partitions=3
            )
            right = ctx.table_from_rows(["k", "r"], _RULES, num_partitions=1)
            return _canon(
                left.filter(col("v") >= 0).join(right, on=["k"]).collect()
            )

        wide, reference = _on_both_paths(inner_join)
        assert len(wide) == 18
        assert wide == reference

    def test_nan_join_keys_match_reference(self):
        # NaN probe keys are object-identity dependent in the dict join;
        # the kernel in front of it must hand over the same cells.
        def nan_join(ctx):
            left = ctx.table_from_rows(
                ["k", "v"], [(float("nan"), 1), (2.0, 2), (3.0, 3)],
                num_partitions=1,
            )
            right = ctx.table_from_rows(
                ["k", "r"], [(2.0, "a"), (3.0, "b")], num_partitions=1
            )
            return sorted(_canon(
                left.filter(col("v") >= 0)
                .join(right, on=["k"])
                .collect()
            ))

        wide, reference = _on_both_paths(nan_join)
        assert wide == reference

    def test_tuple_join_keys_match_reference(self):
        # Object-typed (tuple) keys leave the kernel as cells and are
        # hashed by the row join as they are.
        def tuple_join(ctx):
            left = ctx.table_from_rows(
                ["k", "v"], [((i % 3, "x"), i) for i in range(20)],
                num_partitions=2,
            )
            right = ctx.table_from_rows(
                ["k", "r"], [((i, "x"), "r{}".format(i)) for i in range(3)],
                num_partitions=1,
            )
            return _canon(
                left.filter(col("v") >= 0)
                .join(right, on=["k"])
                .collect()
            )

        wide, reference = _on_both_paths(tuple_join)
        assert len(wide) == 20
        assert wide == reference

    def test_mixed_layout_join_matches_reference(self):
        # A union of a columnar kernel output and a bare row source hands
        # the join mixed-layout partitions; both sides become rows.
        def mixed_join(ctx):
            a = ctx.table_from_rows(
                ["k", "v"], [(i % 4, i) for i in range(12)],
                num_partitions=2,
            ).filter(col("v") >= 0)
            b = ctx.table_from_rows(
                ["k", "v"], [(i % 4, -i) for i in range(1, 9)],
                num_partitions=2,
            )
            rules = ctx.table_from_rows(["k", "r"], _RULES, num_partitions=1)
            return _canon(
                a.union(b).join(rules, on=["k"]).collect()
            )

        wide, reference = _on_both_paths(mixed_join)
        assert len(wide) == 20
        assert wide == reference


# -- the process-pool boundary ------------------------------------------------

class TestColumnarFlow:
    def test_multiprocessing_executor_matches_reference(self):
        pytest.importorskip("multiprocessing")
        from repro.engine.executor import MultiprocessingExecutor

        with EngineContext(
            MultiprocessingExecutor(
                num_workers=2, default_parallelism=4, retry_backoff=0.0
            )
        ) as ctx:
            joined, _groups = _wide_pipeline(ctx)
            rows = joined.collect()
        with _wide_ctx(columnar=False) as ref_ctx:
            expected = _wide_pipeline(ref_ctx)[0].collect()
        assert sorted(_canon(rows)) == sorted(_canon(expected))
