"""A task runs once: its exception fails the stage as an ExecutionError.

The executor runs every per-partition task exactly once and raises a
genuine task exception as an :class:`ExecutionError`, with the task's
own exception as its cause.
"""

import pytest

from repro.engine import EngineContext, col
from repro.engine.errors import ExecutionError
from repro.engine.executor import Executor


def _workload(ctx):
    trace = ctx.table_from_rows(
        ["t", "m_id", "v"],
        [(float(i), i % 5, (i * 7) % 11) for i in range(400)],
        num_partitions=8,
    )
    rules = ctx.table_from_rows(["m_id", "scale"], [(m, m + 1) for m in range(5)])
    return (
        trace.filter(col("v") > 1)
        .join(rules, on="m_id")
        .with_column("scaled", col("v") * col("scale"))
        .select("m_id", "t", "scaled")
        .sort(["m_id", "t"])
    )


def _deterministic_bug(rows):
    raise RuntimeError("deterministic bug")


# One partition, the default count, and more partitions than rows of a
# small input would fill.
PARTITIONS = (1, 4, 16)


class TestFailFast:
    """One failure mode: the first failing task ends the stage with an
    ExecutionError whose cause is its exception."""

    def _collect_bug(self, executor, task=_deterministic_bug):
        ctx = EngineContext(executor)
        partitions = executor.default_parallelism
        with pytest.raises(ExecutionError) as excinfo:
            ctx.table_from_rows(
                ["x"], [(i,) for i in range(2 * partitions)],
                num_partitions=partitions,
            ).map_partitions(task).collect()
        return excinfo.value

    @pytest.mark.parametrize("partitions", PARTITIONS)
    def test_genuine_error_same_class_and_cause(self, partitions):
        error = self._collect_bug(Executor(default_parallelism=partitions))
        assert type(error) is ExecutionError
        assert isinstance(error.cause, RuntimeError)
        assert str(error) == "task execution failed: deterministic bug"

    @pytest.mark.parametrize("partitions", PARTITIONS)
    def test_a_failing_task_runs_once(self, partitions):
        calls = []

        def boom(rows):
            calls.append(1)
            raise RuntimeError("deterministic bug")

        self._collect_bug(Executor(default_parallelism=partitions), boom)
        # A deterministic bug fails fast: no second attempt, and no
        # later partition of the stage runs either.
        assert len(calls) == 1

    @pytest.mark.parametrize("partitions", PARTITIONS)
    def test_an_execution_error_is_raised_as_it_is(self, partitions):
        raised = ExecutionError("bad partition", cause=KeyError("s_id"))

        def fail(rows):
            raise raised

        executor = Executor(default_parallelism=partitions)
        assert self._collect_bug(executor, fail) is raised

    @pytest.mark.parametrize("partitions", PARTITIONS)
    def test_a_failed_stage_times_no_task(self, partitions):
        executor = Executor(default_parallelism=partitions)
        self._collect_bug(executor)
        histograms = executor.obs.snapshot()["histograms"]
        assert "executor.task_seconds" not in histograms


class TestOneAttempt:
    @pytest.mark.parametrize("partitions", PARTITIONS)
    def test_every_partition_runs_once(self, partitions):
        calls = []

        def count(rows):
            calls.append(len(rows))
            return rows

        n = 3 * partitions + 1
        ctx = EngineContext(Executor(default_parallelism=partitions))
        rows = ctx.table_from_rows(
            ["x"], [(i,) for i in range(n)], num_partitions=partitions
        ).map_partitions(count).collect()
        assert sorted(rows) == [(i,) for i in range(n)]
        assert sum(calls) == n
        assert len(calls) == partitions

    @pytest.mark.parametrize("partitions", PARTITIONS)
    def test_task_count_equals_timed_tasks(self, partitions):
        executor = Executor(default_parallelism=partitions)
        _workload(EngineContext(executor)).collect()
        timed = executor.obs.snapshot()["histograms"]["executor.task_seconds"]
        assert timed["count"] == executor.metrics.tasks_run

    @pytest.mark.parametrize("removed", ["retries", "faults_injected"])
    def test_no_retry_or_fault_counter(self, removed):
        executor = Executor()
        assert "executor." + removed not in executor.obs.counters()
        with pytest.raises(AttributeError):
            getattr(executor.metrics, removed)
