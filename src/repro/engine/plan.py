"""Logical query plans.

A :class:`~repro.engine.table.Table` is a thin handle on a tree of plan
nodes. Nothing is computed until an action (``collect``, ``count``,
``write``) is called, at which point an executor walks the tree, fuses
chains of *narrow* transformations (filter/project/map/flat-map) into
single per-partition tasks and runs *wide* transformations (join,
union, sort, repartition) as their own stages -- the same split Spark
makes between narrow and wide dependencies. The single-pass split by
key is not a plan node: :meth:`~repro.engine.table.Table.split_by_key`
runs it at once and returns materialized group tables.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.engine.schema import Schema


class PlanNode:
    """Base class of all logical plan nodes."""

    #: Narrow nodes can be fused into their parent's per-partition task.
    narrow = False

    @property
    def schema(self):
        raise NotImplementedError

    def children(self):
        return ()


@dataclass(frozen=True)
class Source(PlanNode):
    """Materialized in-memory partitions.

    Each partition is either a tuple of row tuples or a
    :class:`~repro.engine.columnar.ColumnarPartition` (column-major
    buffers, possibly mmap-backed). Columnar partitions use identity
    equality, so two Sources over separately built columnar data never
    compare equal -- structural plan caching simply misses instead of
    misfiring.
    """

    source_schema: Schema
    partitions: tuple  # row-tuple tuples or ColumnarPartition objects

    @property
    def schema(self):
        return self.source_schema


@dataclass(frozen=True)
class Filter(PlanNode):
    """Keep rows for which the bound predicate is true."""

    child: PlanNode
    predicate: object  # bound expression
    narrow = True

    @property
    def schema(self):
        return self.child.schema

    def children(self):
        return (self.child,)


@dataclass(frozen=True)
class Project(PlanNode):
    """Evaluate one bound expression per output column."""

    child: PlanNode
    out_schema: Schema
    exprs: tuple  # bound expressions, parallel to out_schema
    narrow = True

    @property
    def schema(self):
        return self.out_schema

    def children(self):
        return (self.child,)


@dataclass(frozen=True)
class FlatMap(PlanNode):
    """Expand each row into zero or more rows of a new schema.

    ``func`` receives the input row as a tuple and must return an iterable
    of output row tuples.
    """

    child: PlanNode
    out_schema: Schema
    func: object
    narrow = True

    @property
    def schema(self):
        return self.out_schema

    def children(self):
        return (self.child,)


@dataclass(frozen=True)
class MapPartitions(PlanNode):
    """Apply a callable to each whole partition.

    ``func`` receives a list of row tuples and returns a list of row
    tuples of ``out_schema``. Used for partition-local algorithms such as
    deduplicating consecutive rows.
    """

    child: PlanNode
    out_schema: Schema
    func: object
    narrow = True

    @property
    def schema(self):
        return self.out_schema

    def children(self):
        return (self.child,)


@dataclass(frozen=True)
class Join(PlanNode):
    """Inner equi-join on key columns both sides share by name.

    The output schema is the left schema concatenated with the right
    schema minus the key columns (they would duplicate the left ones).
    """

    left: PlanNode
    right: PlanNode
    keys: tuple  # column names
    out_schema: Schema

    @property
    def schema(self):
        return self.out_schema

    def children(self):
        return (self.left, self.right)


@dataclass(frozen=True)
class Union(PlanNode):
    """Concatenate two tables with identical column names."""

    left: PlanNode
    right: PlanNode

    @property
    def schema(self):
        return self.left.schema

    def children(self):
        return (self.left, self.right)


@dataclass(frozen=True)
class Sort(PlanNode):
    """Globally sort ascending by the given key columns (stable)."""

    child: PlanNode
    keys: tuple  # column names

    @property
    def schema(self):
        return self.child.schema

    def children(self):
        return (self.child,)


@dataclass(frozen=True)
class Repartition(PlanNode):
    """Redistribute rows into ``num_partitions`` contiguous, balanced
    blocks, keeping their order."""

    child: PlanNode
    num_partitions: int

    @property
    def schema(self):
        return self.child.schema

    def children(self):
        return (self.child,)
