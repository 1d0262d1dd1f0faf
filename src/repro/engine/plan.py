"""Logical query plans.

A :class:`~repro.engine.table.Table` is a thin handle on a tree of plan
nodes. Nothing is computed until an action (``collect``, ``count``,
``write``) is called, at which point an executor walks the tree, fuses
chains of *narrow* transformations (filter/project/map/flat-map) into
single per-partition tasks and runs *wide* transformations (join, sort,
repartition, split) as their own stages -- the same split Spark makes
between narrow and wide dependencies.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    of output row tuples. It must be picklable.
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
    """Apply a picklable callable to each whole partition.

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
    """Equi-join on named key columns.

    ``how`` is ``"inner"`` or ``"left"``. The output schema is the left
    schema concatenated with the right schema minus the right key columns
    (they would duplicate the left ones).
    """

    left: PlanNode
    right: PlanNode
    left_keys: tuple
    right_keys: tuple
    how: str
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
    """Globally sort by the given key columns (ascending flags parallel)."""

    child: PlanNode
    keys: tuple  # column names
    ascending: tuple  # bools parallel to keys

    @property
    def schema(self):
        return self.child.schema

    def children(self):
        return (self.child,)


@dataclass(frozen=True)
class Repartition(PlanNode):
    """Redistribute rows into ``num_partitions`` partitions.

    If ``keys`` is non-empty rows are hash-partitioned on those columns,
    otherwise they are split evenly (round-robin by block).
    """

    child: PlanNode
    num_partitions: int
    keys: tuple = field(default_factory=tuple)

    @property
    def schema(self):
        return self.child.schema

    def children(self):
        return (self.child,)


@dataclass(frozen=True)
class SplitByKey(PlanNode):
    """One named output group of a single-pass split of ``child``.

    The executor routes every child row by its value in the ``key``
    column into per-value groups in *one* pass -- one shuffle stage for
    all groups -- and serves this node's ``group`` from that routing.
    Sibling ``SplitByKey`` nodes over the same child and key share the
    pass through the executor's split cache, which is what turns the
    filter-fan-out pattern (one full scan per key value) into a single
    shuffle.

    Routing preserves partition structure: a group's partition ``i`` is
    the subsequence of child partition ``i`` with that key value, so
    every group is co-partitioned with its siblings and the node is
    exactly (order- and partition-) equivalent to
    ``Filter(child, key == group)``.
    """

    child: PlanNode
    key: str
    group: object

    @property
    def schema(self):
        return self.child.schema

    def children(self):
        return (self.child,)


@dataclass(frozen=True)
class SortedMapPartitions(PlanNode):
    """Partition-wise map that runs *after* a global sort with carry rows.

    ``func(partition, carry)`` receives the sorted partition and a list of
    up to ``carry_rows`` rows from the tail of the previous partition and
    returns a list of output rows. This implements windowed operators
    (the state representation's forward-fill) without giving up
    partitioning.
    """

    child: PlanNode  # must already be globally sorted + range partitioned
    out_schema: Schema
    func: object
    carry_rows: int

    @property
    def schema(self):
        return self.out_schema

    def children(self):
        return (self.child,)
