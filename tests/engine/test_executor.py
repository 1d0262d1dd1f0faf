"""Executor determinism, validation and metrics."""

import pytest

from repro.engine import EngineContext, col
from repro.engine.executor import Executor


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


class TestDeterminism:
    def test_repeated_runs_are_deterministic(self):
        ctx = EngineContext.serial()
        assert _build_workload(ctx).collect() == _build_workload(ctx).collect()


class TestExecutorValidation:
    def test_parallelism_must_be_positive(self):
        with pytest.raises(ValueError):
            Executor(default_parallelism=0)

    def test_there_is_no_columnar_flag(self):
        # Narrow chains run one way; a path flag is an error, not a
        # silently ignored keyword.
        with pytest.raises(TypeError):
            Executor(columnar=False)

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
