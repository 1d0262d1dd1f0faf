"""Engine context: the entry point for creating tables.

An :class:`EngineContext` pairs an executor with table construction
helpers, playing the role of a SparkSession in the paper's deployment.
"""

from __future__ import annotations

from repro.engine import plan as logical
from repro.engine.columnar import ColumnarPartition
from repro.engine.errors import PlanError
from repro.engine.executor import SerialExecutor, SimulatedClusterExecutor
from repro.engine.operations import split_evenly
from repro.engine.schema import Schema
from repro.engine.table import Table


class EngineContext:
    """Factory for :class:`~repro.engine.table.Table` objects.

    Examples
    --------
    >>> ctx = EngineContext.serial()
    >>> t = ctx.table_from_rows(["a", "b"], [(1, 2), (3, 4)])
    >>> t.count()
    2
    """

    def __init__(self, executor):
        self.executor = executor

    @classmethod
    def serial(cls, default_parallelism=4):
        """Context running everything in-process (the serial executor)."""
        return cls(SerialExecutor(default_parallelism=default_parallelism))

    @classmethod
    def simulated_cluster(cls, num_workers=10, stage_latency=0.001):
        """Context with the measured cluster-makespan cost model.

        Results are identical to :meth:`serial`; the executor's
        ``simulated_seconds`` additionally estimates the wall time a
        ``num_workers`` cluster would need (see DESIGN.md).
        """
        return cls(
            SimulatedClusterExecutor(
                num_workers=num_workers, stage_latency=stage_latency
            )
        )

    @property
    def default_parallelism(self):
        return self.executor.default_parallelism

    def close(self):
        self.executor.close()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.close()
        return False

    # -- table constructors -------------------------------------------------
    def table_from_rows(self, columns, rows, num_partitions=None):
        """Create a table from row tuples, splitting into partitions."""
        schema = Schema.of(*columns)
        width = len(schema)
        rows = [tuple(r) for r in rows]
        # Every row is validated, not just the first: a ragged row deep
        # in the input would otherwise surface much later as an opaque
        # IndexError inside some executor task.
        for index, row in enumerate(rows):
            if len(row) != width:
                raise PlanError(
                    "row {} has width {}, which does not match schema "
                    "width {}".format(index, len(row), width)
                )
        if num_partitions is None:
            num_partitions = self.default_parallelism
        partitions = split_evenly(rows, max(num_partitions, 1))
        node = logical.Source(schema, tuple(tuple(p) for p in partitions))
        return Table(self, node)

    def table_from_partitions(self, columns, partitions):
        """Create a table preserving an existing partitioning."""
        schema = Schema.of(*columns)
        node = logical.Source(
            schema, tuple(tuple(tuple(r) for r in p) for p in partitions)
        )
        return Table(self, node)

    def table_from_columnar(self, columns, partitions):
        """Create a table from pre-built columnar partitions.

        *partitions* is a sequence of :class:`ColumnarPartition` objects
        (or row lists, which are transposed into one). The partitions
        are held in the Source node as-is -- no row materialization
        happens until a task that needs rows runs -- which is how the
        columnar tracefile reader exposes mmap'ed column sections to the
        engine without decoding payloads up front.
        """
        schema = Schema.of(*columns)
        width = len(schema)
        built = []
        for index, part in enumerate(partitions):
            if not isinstance(part, ColumnarPartition):
                part = ColumnarPartition.from_rows(
                    [tuple(r) for r in part], width
                )
            if part.width != width:
                raise PlanError(
                    "columnar partition {} has width {}, which does not "
                    "match schema width {}".format(index, part.width, width)
                )
            built.append(part)
        node = logical.Source(schema, tuple(built))
        return Table(self, node)

    def empty_table(self, columns):
        """Create an empty table with the given columns."""
        return self.table_from_rows(columns, [], num_partitions=1)
