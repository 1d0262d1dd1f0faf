"""Executor boundary conditions.

Covers the shapes a fleet-scale run hits in practice, at 1, 4 and 16
partitions: a single partition, more partitions than the default,
zero-row inputs and empty partitions among full ones.
"""

import pytest

from repro.engine import EngineContext, col

PARTITIONS = (1, 4, 16)


def _rows(count):
    return [(float(i), i % 3, i * 5 % 13) for i in range(count)]


def _workload(ctx, rows=200, partitions=4):
    t = ctx.table_from_rows(["t", "m", "v"], _rows(rows),
                            num_partitions=partitions)
    return (
        t.filter(col("v") > 2)
        .select("m", "v", "t")
        .sort(["m", "t"])
    )


def _expected(rows=200):
    kept = sorted((m, t, v) for t, m, v in _rows(rows) if v > 2)
    return [(m, v, t) for m, t, v in kept]


@pytest.mark.parametrize("partitions", PARTITIONS)
class TestPartitionShapes:
    def test_partitions_at_the_default(self, partitions):
        ctx = EngineContext.serial(default_parallelism=partitions)
        assert _workload(ctx, partitions=partitions).collect() == _expected()

    def test_more_partitions_than_the_default(self, partitions):
        ctx = EngineContext.serial(default_parallelism=partitions)
        out = _workload(ctx, partitions=partitions * 4)
        assert out.collect() == _expected()
        assert len(ctx.executor.execute(out.plan)) == partitions

    def test_zero_row_input(self, partitions):
        ctx = EngineContext.serial(default_parallelism=partitions)
        t = ctx.empty_table(["t", "m", "v"])
        assert t.filter(col("v") > 0).collect() == []
        assert t.count() == 0

    def test_zero_row_filter_and_sort(self, partitions):
        ctx = EngineContext.serial(default_parallelism=partitions)
        assert _workload(ctx, rows=0, partitions=partitions).collect() == []

    def test_empty_partitions_among_full_ones(self, partitions):
        layout = [[], [(1.0, 0, 5)], [], [(2.0, 1, 6), (3.0, 2, 7)], []]
        ctx = EngineContext.serial(default_parallelism=partitions)
        t = ctx.table_from_partitions(["t", "m", "v"], layout)
        assert t.filter(col("v") > 5).count() == 2
        assert t.filter(col("v") > 5).sort(["t"]).collect() == [
            (2.0, 1, 6), (3.0, 2, 7)]

    def test_an_empty_stage_runs_no_task(self, partitions):
        ctx = EngineContext.serial(default_parallelism=partitions)
        assert ctx.executor.run_tasks(_identity, [], stage="empty[0]") == []
        assert ctx.executor.run_tasks(
            _identity, [[1], [2]], stage="full[0]") == [[1], [2]]


def _identity(x):
    return x
