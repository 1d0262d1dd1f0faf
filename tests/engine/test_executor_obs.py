"""Executor observability: task-duration histograms and work counters
on the obs registry."""

import pytest

from repro.engine import EngineContext, col
from repro.engine.executor import SerialExecutor, SimulatedClusterExecutor


def _table(ctx, rows=60, partitions=4):
    return ctx.table_from_rows(
        ["x"], [(i,) for i in range(rows)], num_partitions=partitions
    )


def _double(rows):
    return [(x * 2,) for (x,) in rows]


class TestTaskDurationHistograms:
    def test_serial_executor_records_per_task_durations(self):
        ctx = EngineContext.serial(default_parallelism=4)
        _table(ctx).filter(col("x") >= 0).collect()
        histogram = ctx.executor.obs.histogram("executor.task_seconds")
        assert histogram.count == ctx.executor.metrics.tasks_run
        assert histogram.min >= 0.0
        assert histogram.percentile(95) >= histogram.percentile(50)

    def test_per_stage_kind_histograms(self):
        ctx = EngineContext.serial(default_parallelism=4)
        _table(ctx).filter(col("x") > 5).sort("x").collect()
        names = set(ctx.executor.obs.histograms())
        assert "executor.task_seconds.narrow" in names
        assert "executor.task_seconds.sort" in names
        assert any(n.startswith("executor.stage_seconds.") for n in names)

    def test_simulated_cluster_histograms_feed_makespan(self):
        executor = SimulatedClusterExecutor(num_workers=2, stage_latency=0.0)
        executor.run_tasks(_double, [[(1,)], [(2,)], [(3,)]], stage="map[0]")
        histogram = executor.obs.histogram("executor.task_seconds")
        assert histogram.count == 3
        assert executor.serial_task_seconds == pytest.approx(
            histogram.total, rel=1e-6
        )


class TestMetricsView:
    def test_unknown_counter_name_is_an_attribute_error(self):
        metrics = SerialExecutor().metrics
        assert metrics.tasks_run == 0
        with pytest.raises(AttributeError):
            metrics.no_such_counter


class TestCounters:
    def test_counters_exist_at_zero_before_any_run(self):
        executor = SerialExecutor()
        counters = executor.obs.counters()
        assert counters["executor.tasks_run"] == 0
        assert counters["executor.shuffles"] == 0
        assert counters["executor.splits"] == 0


class TestColumnarCounters:
    def _columnar_table(self, ctx, rows=80):
        from repro.engine import ColumnarPartition

        data = [(i, i * 0.5) for i in range(rows)]
        parts = [
            ColumnarPartition.from_rows(data[: rows // 2], 2),
            ColumnarPartition.from_rows(data[rows // 2 :], 2),
        ]
        return ctx.table_from_columnar(["x", "y"], parts)

    def test_columnar_tasks_counted_and_bytes_gauged(self):
        ctx = EngineContext.serial(default_parallelism=2)
        table = self._columnar_table(ctx)
        table.filter(col("x") > 3).select("y").collect()
        counters = ctx.executor.obs.counters()
        assert counters["executor.columnar_tasks"] >= 1
        assert counters["executor.columnar_fallbacks"] == 0
        assert ctx.executor.metrics.columnar_tasks >= 1
        gauges = ctx.executor.obs.gauges()
        assert gauges["executor.partition_bytes"] > 0

    def test_flat_map_chain_is_not_a_fallback(self):
        ctx = EngineContext.serial(default_parallelism=2)
        table = self._columnar_table(ctx)
        table.filter(col("x") > 3).flat_map(_echo_row, ["x", "y"]).collect()
        counters = ctx.executor.obs.counters()
        assert counters["executor.columnar_tasks"] == 1
        assert counters["executor.columnar_fallbacks"] == 0
        assert counters["executor.kernel_fallbacks"] == 0

    def test_a_chain_of_row_barriers_is_not_a_columnar_task(self):
        ctx = EngineContext.serial(default_parallelism=2)
        out = _table(ctx, rows=10, partitions=2).flat_map(_echo_row, ["x"])
        assert out.map_partitions(_double, ["x"]).collect() == [
            (2 * i,) for i in range(10)
        ]
        assert ctx.executor.metrics.columnar_tasks == 0

    def test_a_projection_alone_is_a_columnar_task(self):
        ctx = EngineContext.serial(default_parallelism=2)
        out = self._columnar_table(ctx).select("y", "x")
        assert out.collect() == [(i * 0.5, i) for i in range(80)]
        assert ctx.executor.metrics.columnar_tasks == 1

    def test_a_batch_partition_function_is_a_columnar_task(self):
        ctx = EngineContext.serial(default_parallelism=2)
        out = self._columnar_table(ctx).map_partitions(
            _FirstRow(), ["x", "y"]
        )
        assert out.collect() == [(0, 0.0), (40, 20.0)]
        assert ctx.executor.metrics.columnar_tasks == 1

    def test_counters_exist_at_zero_before_any_run(self):
        executor = SerialExecutor()
        counters = executor.obs.counters()
        assert counters["executor.columnar_tasks"] == 0
        assert counters["executor.columnar_fallbacks"] == 0
        assert counters["executor.columnar_exchange_bytes"] == 0

    def test_join_of_columnar_input_is_a_plain_row_stage(self):
        ctx = EngineContext.serial(default_parallelism=2)
        table = self._columnar_table(ctx)
        lookup = ctx.table_from_rows(["x", "z"], [(i, -i) for i in range(9)])
        out = table.filter(col("x") >= 0).join(lookup, on=["x"])
        assert sorted(out.collect()) == [(i, i * 0.5, -i) for i in range(9)]
        counters = ctx.executor.obs.counters()
        assert counters["executor.broadcast_joins"] == 1
        assert ctx.executor.metrics.columnar_fallbacks == 0
        assert ctx.executor.metrics.columnar_exchange_bytes == 0

    def test_repartition_of_columnar_input_is_a_plain_row_stage(self):
        ctx = EngineContext.serial(default_parallelism=2)
        table = self._columnar_table(ctx)
        out = table.filter(col("x") >= 0).repartition(3)
        assert sorted(out.collect()) == [(i, i * 0.5) for i in range(80)]
        counters = ctx.executor.obs.counters()
        assert counters["executor.columnar_fallbacks"] == 0
        assert counters["executor.columnar_exchange_bytes"] == 0


def _echo_row(row):
    return [row]


class _FirstRow:
    """A partition function publishing the whole-partition form."""

    def __call__(self, rows):
        return rows[:1]

    def batch_call(self, partition):
        return partition.gather(range(min(len(partition), 1)))
