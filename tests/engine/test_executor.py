"""Executor equivalence and the multiprocessing path."""

import pytest

from repro.engine import EngineContext, col
from repro.engine.executor import (
    MultiprocessingExecutor,
    SerialExecutor,
    SimulatedClusterExecutor,
)


def _build_workload(ctx):
    trace = ctx.table_from_rows(
        ["t", "m_id", "v"],
        [(float(i), i % 5, (i * 7) % 11) for i in range(500)],
        num_partitions=8,
    )
    rules = ctx.table_from_rows(
        ["m_id", "scale"], [(m, m + 1) for m in range(3)]
    )
    return (
        trace.filter(col("v") > 2)
        .join(rules, on="m_id")
        .with_column("scaled", col("v") * col("scale"))
        .select("m_id", "t", "scaled")
        .sort(["m_id", "t"])
    )


class TestSerialParallelEquivalence:
    def test_same_results(self):
        serial_ctx = EngineContext.serial(default_parallelism=4)
        expected = _build_workload(serial_ctx).collect()
        pool = MultiprocessingExecutor(num_workers=2)
        with EngineContext(pool) as parallel_ctx:
            actual = _build_workload(parallel_ctx).collect()
        assert actual == expected

    def test_repeated_runs_are_deterministic(self):
        ctx = EngineContext.serial()
        assert _build_workload(ctx).collect() == _build_workload(ctx).collect()


class TestMultiprocessingExecutor:
    def test_runs_filter_on_workers(self):
        with EngineContext(MultiprocessingExecutor(num_workers=2)) as ctx:
            t = ctx.table_from_rows(
                ["x"], [(i,) for i in range(1000)], num_partitions=8
            )
            assert t.filter(col("x") < 100).count() == 100

    def test_single_partition_short_circuits(self):
        executor = MultiprocessingExecutor(num_workers=2)
        try:
            result = executor.run_tasks(_add_one_to_all, [[1, 2, 3]])
            assert result == [[2, 3, 4]]
            # The pool is created lazily; one input never needs it.
            assert executor._pool is None
        finally:
            executor.close()

    def test_close_is_idempotent(self):
        executor = MultiprocessingExecutor(num_workers=2)
        executor.close()
        executor.close()

    def test_default_worker_count_positive(self):
        executor = MultiprocessingExecutor()
        assert executor.num_workers >= 2
        executor.close()


class TestExecutorValidation:
    def test_parallelism_must_be_positive(self):
        with pytest.raises(ValueError):
            SerialExecutor(default_parallelism=0)

    def test_there_is_no_columnar_flag(self):
        # Narrow chains run one way; a path flag is an error, not a
        # silently ignored keyword.
        with pytest.raises(TypeError):
            SerialExecutor(columnar=False)

    def test_metrics_count_tasks(self):
        ctx = EngineContext.serial()
        before = ctx.executor.metrics.tasks_run
        t = ctx.table_from_rows(["x"], [(i,) for i in range(10)], num_partitions=5)
        t.filter(col("x") > 0).collect()
        assert ctx.executor.metrics.tasks_run == before + 5

    def test_metrics_reset(self):
        ctx = EngineContext.serial()
        ctx.table_from_rows(["x"], [(1,)]).filter(col("x") == 1).collect()
        ctx.executor.metrics.reset()
        assert ctx.executor.metrics.tasks_run == 0


class TestSimulatedClusterExecutor:
    def test_results_identical_to_serial(self):
        serial = EngineContext.serial(default_parallelism=4)
        simulated = EngineContext.simulated_cluster(num_workers=4)
        assert (
            _build_workload(simulated).collect()
            == _build_workload(serial).collect()
        )

    def test_accumulates_simulated_time(self):
        ctx = EngineContext.simulated_cluster(num_workers=4)
        t = ctx.table_from_rows(
            ["x"], [(i,) for i in range(1000)], num_partitions=8
        )
        ctx.executor.reset_clock()
        t.filter(col("x") > 10).count()
        assert ctx.executor.simulated_seconds > 0.0

    def test_more_workers_never_slower(self):
        durations = [0.4, 0.3, 0.3, 0.2, 0.2, 0.1]
        few = SimulatedClusterExecutor(num_workers=2)
        many = SimulatedClusterExecutor(num_workers=6)
        assert many._makespan(durations) <= few._makespan(durations)

    def test_makespan_lpt_assignment(self):
        executor = SimulatedClusterExecutor(num_workers=2)
        # LPT on [3,2,2,1] over 2 workers -> loads (3+1, 2+2) = 4.
        assert executor._makespan([3.0, 2.0, 2.0, 1.0]) == pytest.approx(4.0)

    def test_single_worker_is_sum(self):
        executor = SimulatedClusterExecutor(num_workers=1)
        assert executor._makespan([1.0, 2.0]) == pytest.approx(3.0)

    def test_reset_clock(self):
        executor = SimulatedClusterExecutor(num_workers=2)
        executor.run_tasks(_add_one_to_all, [[1], [2]])
        assert executor.simulated_seconds > 0
        executor.reset_clock()
        assert executor.simulated_seconds == 0.0

    def test_worker_count_validated(self):
        with pytest.raises(ValueError):
            SimulatedClusterExecutor(num_workers=0)


def _add_one_to_all(rows):
    return [r + 1 for r in rows]
