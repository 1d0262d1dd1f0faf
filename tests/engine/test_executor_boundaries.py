"""Simulated-cluster boundary conditions.

Covers the shapes a fleet-scale run hits in practice: a single worker,
more partitions than workers, zero-row inputs and empty stages.
"""

from repro.engine import EngineContext, col
from repro.engine.executor import SimulatedClusterExecutor


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
        executor = SimulatedClusterExecutor(
            num_workers=1, default_parallelism=4
        )
        ctx = EngineContext(executor)
        assert _workload(ctx).collect() == expected

    def test_more_partitions_than_workers(self):
        expected = _workload(
            EngineContext.serial(default_parallelism=16), partitions=16
        ).collect()
        executor = SimulatedClusterExecutor(
            num_workers=2, default_parallelism=16
        )
        ctx = EngineContext(executor)
        assert _workload(ctx, partitions=16).collect() == expected

    def test_zero_row_input(self):
        ctx = EngineContext(SimulatedClusterExecutor(num_workers=2))
        t = ctx.empty_table(["t", "m", "v"])
        assert t.filter(col("v") > 0).collect() == []
        assert t.count() == 0

    def test_zero_row_filter_and_sort(self):
        ctx = EngineContext(SimulatedClusterExecutor(num_workers=2))
        out = _workload(ctx, rows=0)
        assert out.collect() == []

    def test_empty_partitions_among_full_ones(self):
        layout = [[], [(1.0, 0, 5)], [], [(2.0, 1, 6), (3.0, 2, 7)], []]
        ctx = EngineContext(SimulatedClusterExecutor(num_workers=2))
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
