"""The columnar wide stage: the broadcast join.

Pins the invariant of the columnar exchange: a broadcast join fed
columnar partitions produces exactly the row path's output, row order
included, and falls back to the row path, counted, whenever its inputs
are mixed-layout or a key column carries non-scalar objects or NaN
floats. Split and repartition downstream of it are row stages.
"""

import pytest

from repro.engine import EngineContext, col
from repro.engine import executor as executor_module
from repro.engine.executor import SerialExecutor


def _wide_ctx(**overrides):
    kwargs = dict(default_parallelism=4)
    kwargs.update(overrides)
    return EngineContext(SerialExecutor(**kwargs))


def _fallbacks(ctx):
    """``executor.columnar_fallbacks`` total ("") and per-reason counts."""
    prefix = "executor.columnar_fallbacks"
    return {
        name[len(prefix):]: value
        for name, value in ctx.executor.obs.counters().items()
        if name.startswith(prefix)
    }


def _canon(rows):
    """Type- and NaN-stable row representation for equality checks."""
    return [tuple((type(v).__name__, repr(v)) for v in row) for row in rows]


# -- end-to-end wide pipeline -------------------------------------------------

_TRACE = [(i % 7, i % 3, float(i)) for i in range(60)]
_RULES = [(k, "rule-{}".format(k)) for k in range(5)]


def _wide_pipeline(ctx):
    """filter -> broadcast join -> keyed repartition -> split_by_key."""
    trace = ctx.table_from_rows(["k", "g", "v"], _TRACE, num_partitions=4)
    rules = ctx.table_from_rows(["k", "r"], _RULES, num_partitions=2)
    joined = (
        trace.filter(col("v") >= 3.0)
        .join(rules, on=["k"], how="inner")
        .repartition(3, keys=["g"])
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
        # Not just multiset equality: the columnar join scans left rows
        # in order and appends matches exactly like the row task, so
        # even unsorted collects agree row-for-row.
        with _wide_ctx() as wide, _wide_ctx(columnar=False) as row:
            wide_rows = _wide_pipeline(wide)[0].collect()
            row_rows = _wide_pipeline(row)[0].collect()
        assert _canon(wide_rows) == _canon(row_rows)

    def test_left_join_parity_with_unmatched_rows(self):
        results = {}
        for name, ctx in (
            ("wide", _wide_ctx()),
            ("reference", _wide_ctx(columnar=False)),
        ):
            with ctx:
                left = ctx.table_from_rows(
                    ["k", "v"], [(i % 9, i) for i in range(30)],
                    num_partitions=3,
                )
                right = ctx.table_from_rows(
                    ["k", "r"], _RULES, num_partitions=1
                )
                results[name] = _canon(
                    left.filter(col("v") >= 0)
                    .join(right, on=["k"], how="left")
                    .collect()
                )
        assert results["wide"] == results["reference"]


# -- counters and fallbacks ---------------------------------------------------

class TestExchangeCounters:
    def test_wide_run_counts_join_tasks_and_bytes(self):
        with _wide_ctx() as ctx:
            joined, groups = _wide_pipeline(ctx)
            joined.collect()
            for table in groups.values():
                table.collect()
            metrics = ctx.executor.metrics
            assert metrics.columnar_join_tasks > 0
            assert metrics.columnar_exchange_bytes > 0
            # Repartition and split run on rows by design, which is not
            # a fallback.
            assert _fallbacks(ctx) == {"": 0}
            counters = ctx.executor.obs.counters()
            assert counters["executor.columnar_join_tasks"] == (
                metrics.columnar_join_tasks
            )
            assert counters["executor.columnar_exchange_bytes"] == (
                metrics.columnar_exchange_bytes
            )

    def test_reference_path_counts_nothing(self):
        with _wide_ctx(columnar=False) as ctx:
            joined, _groups = _wide_pipeline(ctx)
            joined.collect()
            metrics = ctx.executor.metrics
            assert metrics.columnar_join_tasks == 0
            assert metrics.columnar_exchange_bytes == 0

    def test_fresh_executor_reports_zeroed_counters(self):
        with _wide_ctx() as ctx:
            metrics = ctx.executor.metrics
            assert metrics.columnar_join_tasks == 0
            assert metrics.columnar_exchange_bytes == 0


class TestRowFallbacks:
    def test_object_typed_key_column_falls_back(self):
        # Tuple-valued keys are outside the scalar cell set: the join
        # must take the row path (results still correct) and count the
        # fallback.
        with _wide_ctx() as ctx:
            left = ctx.table_from_rows(
                ["k", "v"], [((i % 3, "x"), i) for i in range(20)],
                num_partitions=2,
            )
            right = ctx.table_from_rows(
                ["k", "r"], [((i, "x"), "r{}".format(i)) for i in range(3)],
                num_partitions=1,
            )
            out = (
                left.filter(col("v") >= 0)
                .join(right, on=["k"], how="inner")
                .collect()
            )
            assert len(out) == 20
            assert ctx.executor.metrics.columnar_join_tasks == 0
            assert _fallbacks(ctx) == {"": 1, ".non_scalar_key": 1}

    def test_nan_join_keys_fall_back_and_match_reference(self):
        # NaN probe keys are object-identity dependent in the row dict
        # join; the columnar path must refuse them rather than silently
        # matching fresh floats differently.
        rows = [(float("nan"), 1), (2.0, 2), (3.0, 3)]
        results = {}
        for name, ctx in (
            ("wide", _wide_ctx()),
            ("interpreted", _wide_ctx(columnar=False)),
        ):
            with ctx:
                left = ctx.table_from_rows(
                    ["k", "v"], rows, num_partitions=1
                )
                right = ctx.table_from_rows(
                    ["k", "r"], [(2.0, "a"), (3.0, "b")], num_partitions=1
                )
                results[name] = sorted(
                    _canon(
                        left.filter(col("v") >= 0)
                        .join(right, on=["k"], how="inner")
                        .collect()
                    )
                )
                if name == "wide":
                    assert ctx.executor.metrics.columnar_join_tasks == 0
                    assert _fallbacks(ctx) == {"": 1, ".nan_key": 1}
        assert results["wide"] == results["interpreted"]

    def test_mixed_layout_join_falls_back(self):
        with _wide_ctx() as ctx:
            # A union of a columnar narrow chain and a bare row source
            # produces mixed-layout partitions; the join must fall
            # back whole rather than probe half columnar.
            a = ctx.table_from_rows(
                ["k", "v"], [(i % 4, i) for i in range(12)],
                num_partitions=2,
            ).filter(col("v") >= 0)
            b = ctx.table_from_rows(
                ["k", "v"], [(i % 4, -i) for i in range(1, 9)],
                num_partitions=2,
            )
            rules = ctx.table_from_rows(
                ["k", "r"], _RULES, num_partitions=1
            )
            out = a.union(b).join(rules, on=["k"], how="inner").collect()
            assert len(out) == 20
            assert ctx.executor.metrics.columnar_join_tasks == 0
            assert _fallbacks(ctx) == {"": 1, ".mixed_layout": 1}

    def test_shuffle_join_falls_back(self, monkeypatch):
        # A right side over the broadcast threshold hash-shuffles both
        # sides into interleaved bucket pairs, which have no columnar
        # layout: columnar inputs are counted as a fallback.
        monkeypatch.setattr(executor_module, "BROADCAST_THRESHOLD", 2)
        results = {}
        for name, ctx in (
            ("wide", _wide_ctx()),
            ("reference", _wide_ctx(columnar=False)),
        ):
            with ctx:
                trace = ctx.table_from_rows(
                    ["k", "g", "v"], _TRACE, num_partitions=4
                )
                rules = ctx.table_from_rows(
                    ["k", "r"], _RULES, num_partitions=2
                )
                results[name] = sorted(_canon(
                    trace.filter(col("v") >= 3.0)
                    .join(rules, on=["k"], how="inner")
                    .collect()
                ))
                expected = {"": 1, ".shuffle_join": 1} if name == "wide" \
                    else {"": 0}
                assert _fallbacks(ctx) == expected
        assert results["wide"] == results["reference"]


# -- the process-pool boundary ------------------------------------------------

class TestColumnarFlow:
    def test_multiprocessing_executor_runs_wide_columnar(self):
        pytest.importorskip("multiprocessing")
        from repro.engine.executor import MultiprocessingExecutor

        with EngineContext(
            MultiprocessingExecutor(
                num_workers=2, default_parallelism=4, retry_backoff=0.0
            )
        ) as ctx:
            joined, _groups = _wide_pipeline(ctx)
            rows = joined.collect()
            assert ctx.executor.metrics.columnar_join_tasks > 0
        with _wide_ctx(columnar=False) as ref_ctx:
            expected = _wide_pipeline(ref_ctx)[0].collect()
        assert sorted(_canon(rows)) == sorted(_canon(expected))
