"""MultiprocessingExecutor boundary conditions.

Covers the shapes a fleet-scale run hits in practice: a single worker,
more partitions than workers, zero-row inputs, and the unpicklable-task
path, which must fail with an actionable EngineError rather than a raw
PicklingError from the pool internals.
"""

import pytest

from repro.engine import EngineContext, col
from repro.engine.errors import EngineError, ExecutionError
from repro.engine.executor import (
    MultiprocessingExecutor,
    SimulatedClusterExecutor,
)


def _workload(ctx, rows=200, partitions=4):
    t = ctx.table_from_rows(
        ["t", "m", "v"],
        [(float(i), i % 3, i * 5 % 13) for i in range(rows)],
        num_partitions=partitions,
    )
    return (
        t.filter(col("v") > 2)
        .select("m", "v", "t")
        .sort(["m", "t"])
    )


class TestWorkerAndPartitionShapes:
    def test_single_worker(self):
        expected = _workload(EngineContext.serial(default_parallelism=4)).collect()
        executor = MultiprocessingExecutor(
            num_workers=1, default_parallelism=4
        )
        with EngineContext(executor) as ctx:
            assert _workload(ctx).collect() == expected

    def test_more_partitions_than_workers(self):
        expected = _workload(
            EngineContext.serial(default_parallelism=16), partitions=16
        ).collect()
        executor = MultiprocessingExecutor(
            num_workers=2, default_parallelism=16
        )
        with EngineContext(executor) as ctx:
            assert _workload(ctx, partitions=16).collect() == expected

    def test_zero_row_input(self):
        with EngineContext(MultiprocessingExecutor(num_workers=2)) as ctx:
            t = ctx.empty_table(["t", "m", "v"])
            assert t.filter(col("v") > 0).collect() == []
            assert t.count() == 0

    def test_zero_row_filter_and_sort(self):
        with EngineContext(MultiprocessingExecutor(num_workers=2)) as ctx:
            out = _workload(ctx, rows=0)
            assert out.collect() == []

    def test_empty_partitions_among_full_ones(self):
        layout = [[], [(1.0, 0, 5)], [], [(2.0, 1, 6), (3.0, 2, 7)], []]
        with EngineContext(MultiprocessingExecutor(num_workers=2)) as ctx:
            t = ctx.table_from_partitions(["t", "m", "v"], layout)
            assert t.filter(col("v") > 5).count() == 2


def _identity(x):
    return x


class TestSimulatedClusterEmptyStages:
    def test_empty_stage_charges_no_latency(self):
        # Invariant: a stage with zero partitions schedules zero tasks,
        # so it must not be billed the per-stage coordination latency.
        # The old code charged stage_latency unconditionally, making a
        # zero-partition stage cost a full stage each.
        executor = SimulatedClusterExecutor(num_workers=4, stage_latency=0.5)
        assert executor.run_tasks(_identity, [], stage="empty[0]") == []
        assert executor.simulated_seconds == 0.0
        assert executor.serial_task_seconds == 0.0

    def test_nonempty_stage_still_charges_latency(self):
        executor = SimulatedClusterExecutor(num_workers=4, stage_latency=0.5)
        outputs = executor.run_tasks(_identity, [[1], [2]], stage="full[0]")
        assert outputs == [[1], [2]]
        assert executor.simulated_seconds >= 0.5

    def test_mixed_empty_and_full_stages(self):
        executor = SimulatedClusterExecutor(num_workers=2, stage_latency=0.25)
        executor.run_tasks(_identity, [[1]], stage="a[0]")
        executor.run_tasks(_identity, [], stage="b[1]")
        executor.run_tasks(_identity, [[2]], stage="c[2]")
        # Exactly two stages ran tasks -> exactly two latency charges.
        assert 0.5 <= executor.simulated_seconds < 0.75


class TestPicklingFailurePath:
    def test_unpicklable_task_raises_engine_error(self):
        executor = MultiprocessingExecutor(num_workers=2, retry_backoff=0.0)
        try:
            with pytest.raises(ExecutionError) as excinfo:
                executor.run_tasks(lambda rows: rows, [[1], [2], [3]])
        finally:
            executor.close()
        error = excinfo.value
        assert isinstance(error, EngineError)
        assert "picklable" in str(error)

    def test_unpicklable_plan_function_raises_engine_error(self):
        captured = []  # a closure over local state cannot be pickled

        def closure_func(rows):
            captured.append(rows)
            return rows

        with EngineContext(MultiprocessingExecutor(num_workers=2)) as ctx:
            t = ctx.table_from_rows(
                ["x"], [(i,) for i in range(40)], num_partitions=4
            )
            with pytest.raises(EngineError) as excinfo:
                t.map_partitions(closure_func).collect()
        assert "picklable" in str(excinfo.value)

    def test_pickling_error_is_not_retried(self):
        executor = MultiprocessingExecutor(
            num_workers=2, max_task_retries=3, retry_backoff=0.0
        )
        try:
            with pytest.raises(ExecutionError):
                executor.run_tasks(lambda rows: rows, [[1], [2]])
            assert executor.metrics.retries == 0
        finally:
            executor.close()


class TestPoolLifecycle:
    def test_pool_survives_failed_stage(self):
        executor = MultiprocessingExecutor(num_workers=2, retry_backoff=0.0)
        with EngineContext(executor) as ctx:
            with pytest.raises(EngineError):
                ctx.table_from_rows(
                    ["x"], [(i,) for i in range(10)], num_partitions=4
                ).map_partitions(lambda rows: rows).collect()
            # The pool must stay usable for the next query.
            t = ctx.table_from_rows(
                ["x"], [(i,) for i in range(10)], num_partitions=4
            )
            assert t.filter(col("x") >= 5).count() == 5
