"""Engine error paths: failures must surface as typed exceptions."""

import pytest

from repro.engine import EngineContext, ExecutionError, PlanError
from repro.engine.errors import EngineError, SchemaError
from repro.engine.executor import Executor
from repro.engine.plan import PlanNode


def _boom(row):
    raise RuntimeError("kaboom")


class TestExecutionErrors:
    def test_task_failure_wrapped(self, ctx):
        t = ctx.table_from_rows(["x"], [(1,)]).flat_map(_boom, ["y"])
        with pytest.raises(ExecutionError) as excinfo:
            t.collect()
        assert "kaboom" in str(excinfo.value)
        assert isinstance(excinfo.value.cause, RuntimeError)

    def test_error_hierarchy(self):
        assert issubclass(ExecutionError, EngineError)
        assert issubclass(PlanError, EngineError)
        assert issubclass(SchemaError, EngineError)

    def test_unknown_plan_node_rejected(self):
        class Alien(PlanNode):
            @property
            def schema(self):
                from repro.engine import Schema

                return Schema.of("x")

        with pytest.raises(PlanError):
            Executor().execute(Alien())

    def test_partial_failure_does_not_corrupt_later_queries(self, ctx):
        t = ctx.table_from_rows(["x"], [(1,), (2,)])
        with pytest.raises(ExecutionError):
            t.flat_map(_boom, ["y"]).collect()
        # The context stays usable.
        assert t.count() == 2


class TestPartitionedErrorPropagation:
    @pytest.mark.parametrize("partitions", [1, 4, 16])
    def test_task_exception_reaches_the_caller(self, partitions):
        ctx = EngineContext.serial(default_parallelism=partitions)
        t = ctx.table_from_rows(
            ["x"], [(i,) for i in range(10)], num_partitions=partitions
        ).flat_map(_boom, ["y"])
        with pytest.raises(ExecutionError) as excinfo:
            t.collect()
        assert isinstance(excinfo.value.cause, RuntimeError)
