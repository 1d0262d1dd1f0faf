"""Fault injection and retry: executors must survive worker failures.

With a 20% injected task-failure rate, the simulated cluster retries
and produces output identical to SerialExecutor; exhausted retries
surface a structured TaskError naming the stage and partition.
"""

import random

import pytest

from repro.core.params import config_from_dict
from repro.core.pipeline import PreprocessingPipeline
from repro.engine import EngineContext, col
from repro.engine.errors import (
    EngineError,
    ExecutionError,
    InjectedFaultError,
    TaskError,
)
from repro.engine.executor import (
    FaultPolicy,
    SerialExecutor,
    SimulatedClusterExecutor,
)
from repro.protocols.frames import BYTE_RECORD_COLUMNS
from repro.testing.generator import generate_journey_case


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


def _journey_rows(ctx, case):
    """A generated journey's ``K_s`` and ``R_out`` rows."""
    k_b = ctx.table_from_rows(list(BYTE_RECORD_COLUMNS), list(case.records))
    result = PreprocessingPipeline(
        config_from_dict(case.params, case.database)
    ).run(k_b)
    return result.k_s.collect() + result.r_out.collect()


class TestFaultPolicy:
    def test_rates_validated(self):
        with pytest.raises(ValueError):
            FaultPolicy(crash_rate=1.5)
        with pytest.raises(ValueError):
            FaultPolicy(crash_rate=0.5, crashes_per_task=0)

    def test_decisions_are_deterministic(self):
        policy = FaultPolicy(crash_rate=0.5, seed=42)
        first = [policy.crashes_for("s", i) for i in range(50)]
        second = [policy.crashes_for("s", i) for i in range(50)]
        assert first == second

    def test_rate_roughly_honoured(self):
        policy = FaultPolicy(crash_rate=0.2, seed=7)
        crashed = sum(
            1 for i in range(1000) if policy.crashes_for("stage", i)
        )
        assert 120 <= crashed <= 280

    def test_zero_rate_never_crashes(self):
        policy = FaultPolicy(crash_rate=0.0, seed=1)
        assert all(
            policy.crashes_for("s", i) == 0 for i in range(100)
        )

    def test_crash_raises_injected_fault(self):
        policy = FaultPolicy(crash_rate=1.0, seed=0)
        with pytest.raises(InjectedFaultError):
            policy.run("s", 0, 0, lambda x: x, [1])

    def test_crash_clears_after_budget(self):
        policy = FaultPolicy(crash_rate=1.0, seed=0, crashes_per_task=2)
        with pytest.raises(InjectedFaultError):
            policy.run("s", 0, 1, list, (1,))
        assert policy.run("s", 0, 2, list, (1,)) == [1]

    def test_poison_corrupts_list_output(self):
        policy = FaultPolicy(poison_rate=1.0, seed=0)
        assert policy.run("s", 0, 0, list, (1, 2, 3)) == [1, 2]


class TestFaultEquivalence:
    def test_twenty_percent_failures_identical_output(self):
        expected = _workload(EngineContext.serial(default_parallelism=4)).collect()
        policy = FaultPolicy(crash_rate=0.2, seed=11)
        executor = SimulatedClusterExecutor(
            num_workers=2, default_parallelism=4,
            fault_policy=policy, retry_backoff=0.0,
        )
        ctx = EngineContext(executor)
        actual = _workload(ctx).collect()
        assert actual == expected
        # The 20% rate must actually have fired somewhere.
        assert executor.metrics.retries > 0

    def test_fuzz_cases_identical_under_faults(self):
        policy = FaultPolicy(crash_rate=0.2, seed=5)
        executor = SimulatedClusterExecutor(
            num_workers=2, default_parallelism=4,
            fault_policy=policy, retry_backoff=0.0,
        )
        faulty = EngineContext(executor)
        reference = EngineContext.serial(default_parallelism=4)
        for seed in range(6):
            case = generate_journey_case(random.Random(seed))
            expected = sorted(map(repr, _journey_rows(reference, case)))
            actual = sorted(map(repr, _journey_rows(faulty, case)))
            assert actual == expected, "seed {}".format(seed)
        assert executor.metrics.retries > 0


class TestRetryExhaustion:
    def test_structured_task_error_names_stage_and_partition(self):
        policy = FaultPolicy(crash_rate=1.0, seed=1, crashes_per_task=10)
        executor = SimulatedClusterExecutor(
            num_workers=2, default_parallelism=4,
            fault_policy=policy, max_task_retries=1, retry_backoff=0.0,
        )
        ctx = EngineContext(executor)
        with pytest.raises(TaskError) as excinfo:
            _workload(ctx).collect()
        error = excinfo.value
        assert isinstance(error, EngineError)
        assert error.stage is not None
        assert error.partition is not None
        assert error.attempts == 2
        assert error.stage.split("[")[0] in (
            "narrow", "broadcast-join", "sort",
        )
        assert str(error.partition) in str(error)

    def test_serial_executor_also_retries_and_exhausts(self):
        policy = FaultPolicy(crash_rate=1.0, seed=2, crashes_per_task=10)
        executor = SerialExecutor(
            fault_policy=policy, max_task_retries=2, retry_backoff=0.0
        )
        ctx = EngineContext(executor)
        with pytest.raises(TaskError) as excinfo:
            ctx.table_from_rows(["x"], [(1,), (2,)]).filter(
                col("x") > 0
            ).collect()
        assert excinfo.value.attempts == 3
        assert executor.metrics.retries == 2

    def test_serial_recovers_within_retry_budget(self):
        policy = FaultPolicy(crash_rate=1.0, seed=3, crashes_per_task=2)
        executor = SerialExecutor(
            fault_policy=policy, max_task_retries=2, retry_backoff=0.0
        )
        ctx = EngineContext(executor)
        t = ctx.table_from_rows(["x"], [(i,) for i in range(10)])
        assert t.filter(col("x") >= 0).count() == 10
        assert executor.metrics.retries > 0

    def test_simulated_cluster_supports_faults(self):
        policy = FaultPolicy(crash_rate=0.3, seed=4)
        executor = SimulatedClusterExecutor(
            num_workers=4, fault_policy=policy, retry_backoff=0.0
        )
        ctx = EngineContext(executor)
        expected = _workload(
            EngineContext.serial(default_parallelism=4)
        ).collect()
        assert _workload(ctx).collect() == expected

    def test_genuine_errors_not_retried_serially(self):
        executor = SerialExecutor(max_task_retries=5, retry_backoff=0.0)
        calls = []

        def boom(rows):
            calls.append(1)
            raise RuntimeError("deterministic bug")

        ctx = EngineContext(executor)
        with pytest.raises(ExecutionError):
            ctx.table_from_rows(["x"], [(1,)]).map_partitions(
                boom
            ).collect()
        # A deterministic bug must fail fast, not burn the retry budget.
        assert len(calls) == 1

    def test_genuine_errors_not_retried_on_the_simulated_cluster(self):
        executor = SimulatedClusterExecutor(
            num_workers=2, default_parallelism=4,
            max_task_retries=3, retry_backoff=0.0,
        )
        ctx = EngineContext(executor)
        with pytest.raises(ExecutionError) as excinfo:
            ctx.table_from_rows(
                ["x"], [(i,) for i in range(8)], num_partitions=4
            ).map_partitions(_deterministic_bug).collect()
        # Same failure as the serial executor's, with no retry spent.
        assert type(excinfo.value) is ExecutionError
        assert isinstance(excinfo.value.cause, RuntimeError)
        assert executor.metrics.retries == 0


def _deterministic_bug(rows):
    raise RuntimeError("deterministic bug")


_EXECUTORS = {
    "serial": lambda **kw: SerialExecutor(default_parallelism=4, **kw),
    "simulated": lambda **kw: SimulatedClusterExecutor(num_workers=4, **kw),
}


class TestFailFastOnEveryExecutor:
    """The shared attempt loop gives every executor one failure mode."""

    def _collect_bug(self, executor):
        ctx = EngineContext(executor)
        with pytest.raises(ExecutionError) as excinfo:
            ctx.table_from_rows(
                ["x"], [(i,) for i in range(8)], num_partitions=4
            ).map_partitions(_deterministic_bug).collect()
        return excinfo.value

    @pytest.mark.parametrize("kind", sorted(_EXECUTORS))
    def test_genuine_error_same_class_and_no_retries(self, kind):
        executor = _EXECUTORS[kind](max_task_retries=3, retry_backoff=0.0)
        error = self._collect_bug(executor)
        assert type(error) is ExecutionError
        assert isinstance(error.cause, RuntimeError)
        assert executor.metrics.retries == 0
        assert executor.metrics.faults_injected == 0

    @pytest.mark.parametrize("kind", sorted(_EXECUTORS))
    def test_injected_fault_then_bug_fails_as_the_bug(self, kind):
        policy = FaultPolicy(crash_rate=1.0, seed=8, crashes_per_task=1)
        executor = _EXECUTORS[kind](
            fault_policy=policy, max_task_retries=3, retry_backoff=0.0
        )
        error = self._collect_bug(executor)
        # The crash is retried once; the bug behind it is not.
        assert type(error) is ExecutionError
        assert isinstance(error.cause, RuntimeError)
        assert executor.metrics.retries >= 1
        assert executor.metrics.retries == executor.metrics.faults_injected


class TestDelayInjection:
    def test_delays_do_not_change_results(self):
        policy = FaultPolicy(delay_rate=0.5, delay_seconds=0.001, seed=6)
        executor = SerialExecutor(fault_policy=policy, retry_backoff=0.0)
        ctx = EngineContext(executor)
        t = ctx.table_from_rows(
            ["x"], [(i,) for i in range(20)], num_partitions=4
        )
        assert sorted(t.filter(col("x") < 10).collect()) == [
            (i,) for i in range(10)
        ]
