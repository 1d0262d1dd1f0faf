"""A task runs once: its exception fails the stage as an ExecutionError.

Both executors run every per-partition task exactly once and raise a
genuine task exception as the same :class:`ExecutionError`, with the
task's own exception as its cause. The simulated cluster's makespan
model charges the LPT schedule of the measured durations, at a cost
bounded by the stage's task count rather than the worker count.
"""

import itertools

import pytest

from repro.engine import EngineContext, col
from repro.engine.errors import ExecutionError
from repro.engine.executor import SerialExecutor, SimulatedClusterExecutor


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


_EXECUTORS = {
    "serial": lambda: SerialExecutor(default_parallelism=4),
    "simulated": lambda: SimulatedClusterExecutor(num_workers=4),
}


class TestFailFastOnEveryExecutor:
    """Every executor has one failure mode: the first failing task ends
    the stage with an ExecutionError whose cause is its exception."""

    def _collect_bug(self, executor, task=_deterministic_bug):
        ctx = EngineContext(executor)
        with pytest.raises(ExecutionError) as excinfo:
            ctx.table_from_rows(
                ["x"], [(i,) for i in range(8)], num_partitions=4
            ).map_partitions(task).collect()
        return excinfo.value

    @pytest.mark.parametrize("kind", sorted(_EXECUTORS))
    def test_genuine_error_same_class_and_cause(self, kind):
        error = self._collect_bug(_EXECUTORS[kind]())
        assert type(error) is ExecutionError
        assert isinstance(error.cause, RuntimeError)
        assert str(error) == "task execution failed: deterministic bug"

    @pytest.mark.parametrize("kind", sorted(_EXECUTORS))
    def test_a_failing_task_runs_once(self, kind):
        calls = []

        def boom(rows):
            calls.append(1)
            raise RuntimeError("deterministic bug")

        self._collect_bug(_EXECUTORS[kind](), boom)
        # A deterministic bug fails fast: no second attempt, and no
        # later partition of the stage runs either.
        assert len(calls) == 1

    @pytest.mark.parametrize("kind", sorted(_EXECUTORS))
    def test_an_execution_error_is_raised_as_it_is(self, kind):
        raised = ExecutionError("bad partition", cause=KeyError("s_id"))

        def fail(rows):
            raise raised

        assert self._collect_bug(_EXECUTORS[kind](), fail) is raised

    @pytest.mark.parametrize("kind", sorted(_EXECUTORS))
    def test_a_failed_stage_times_no_task(self, kind):
        executor = _EXECUTORS[kind]()
        self._collect_bug(executor)
        histograms = executor.obs.snapshot()["histograms"]
        assert "executor.task_seconds" not in histograms


class TestOneAttempt:
    @pytest.mark.parametrize("kind", sorted(_EXECUTORS))
    def test_every_partition_runs_once(self, kind):
        calls = []

        def count(rows):
            calls.append(len(rows))
            return rows

        ctx = EngineContext(_EXECUTORS[kind]())
        rows = ctx.table_from_rows(
            ["x"], [(i,) for i in range(10)], num_partitions=4
        ).map_partitions(count).collect()
        assert sorted(rows) == [(i,) for i in range(10)]
        assert sum(calls) == 10
        assert len(calls) == 4

    @pytest.mark.parametrize("kind", sorted(_EXECUTORS))
    def test_task_count_equals_timed_tasks(self, kind):
        executor = _EXECUTORS[kind]()
        _workload(EngineContext(executor)).collect()
        timed = executor.obs.snapshot()["histograms"]["executor.task_seconds"]
        assert timed["count"] == executor.metrics.tasks_run

    def test_executors_agree(self):
        outputs = {
            kind: _workload(EngineContext(factory())).collect()
            for kind, factory in _EXECUTORS.items()
        }
        assert outputs["serial"] == outputs["simulated"]

    @pytest.mark.parametrize("removed", ["retries", "faults_injected"])
    def test_no_retry_or_fault_counter(self, removed):
        executor = SerialExecutor()
        assert "executor." + removed not in executor.obs.counters()
        with pytest.raises(AttributeError):
            getattr(executor.metrics, removed)


def _brute_force_lpt(durations, workers):
    """LPT by the book: each task, longest first, goes to the least
    loaded of *workers* workers (all of them kept)."""
    loads = [0.0] * workers
    for duration in sorted(durations, reverse=True):
        loads[loads.index(min(loads))] += duration
    return max(loads)


_MAKESPAN_CASES = [
    ([], 3),
    ([1.0], 1),
    ([1.0], 5),
    ([3.0, 1.0, 2.0], 1),
    ([3.0, 1.0, 2.0], 2),
    ([3.0, 1.0, 2.0], 3),
    ([3.0, 1.0, 2.0], 7),
    ([5.0, 4.0, 3.0, 3.0, 2.0, 2.0], 2),
    ([5.0, 4.0, 3.0, 3.0, 2.0, 2.0], 3),
    ([0.25] * 9, 4),
    ([0.0, 0.0, 1.5], 2),
]


class TestMakespan:
    @pytest.mark.parametrize("durations, workers", _MAKESPAN_CASES)
    def test_equals_brute_force_lpt(self, durations, workers):
        executor = SimulatedClusterExecutor(num_workers=workers)
        expected = _brute_force_lpt(durations, workers) if durations else 0.0
        assert executor._makespan(durations) == expected

    def test_every_order_of_small_stages(self):
        for durations in itertools.permutations([0.5, 1.0, 2.0, 4.0]):
            for workers in range(1, 6):
                executor = SimulatedClusterExecutor(num_workers=workers)
                assert executor._makespan(list(durations)) == \
                    _brute_force_lpt(durations, workers)

    def test_a_million_workers_cost_the_longest_task(self):
        executor = SimulatedClusterExecutor(num_workers=10**6)
        durations = [0.5, 2.0, 1.25]
        assert executor._makespan(durations) == max(durations)

    def test_a_million_workers_run_a_stage(self):
        ctx = EngineContext(SimulatedClusterExecutor(num_workers=10**6,
                                                     default_parallelism=4))
        table = ctx.table_from_rows(
            ["x"], [(i,) for i in range(12)], num_partitions=4
        )
        assert table.filter(col("x") > 5).count() == 6
        assert ctx.executor.simulated_seconds > 0.0
