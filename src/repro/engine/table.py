"""The :class:`Table` API.

A Table is an immutable, lazily-evaluated handle on a logical plan,
analogous to a Spark DataFrame. Transformations (``filter``, ``select``,
``join`` ...) build new plans; actions (``collect``, ``count``,
``cache``) hand the plan to the context's executor.

Examples
--------
>>> from repro.engine import EngineContext, col
>>> ctx = EngineContext.serial()
>>> t = ctx.table_from_rows(["t", "m_id"], [(1.0, 3), (2.0, 7)])
>>> t.filter(col("m_id") == 3).count()
1
"""

from __future__ import annotations

from repro.engine import plan as logical
from repro.engine.columnar import ColumnarPartition
from repro.engine.errors import PlanError, SchemaError
from repro.engine.expressions import Expression, col
from repro.engine.schema import Schema


class Table:
    """An immutable tabular dataset bound to an :class:`EngineContext`."""

    def __init__(self, context, plan_node):
        self._context = context
        self._plan = plan_node

    # -- introspection ---------------------------------------------------
    @property
    def schema(self):
        return self._plan.schema

    @property
    def columns(self):
        return list(self._plan.schema.names)

    @property
    def context(self):
        return self._context

    @property
    def plan(self):
        return self._plan

    def __repr__(self):
        return "Table({})".format(", ".join(self.columns))

    # -- narrow transformations -------------------------------------------
    def filter(self, predicate):
        """Keep rows where *predicate* (an unbound expression) holds."""
        bound = predicate.bind(self.schema)
        return self._derive(logical.Filter(self._plan, bound))

    def select(self, *names):
        """Project to the named columns, in the given order."""
        out_schema = self.schema.select(names)
        exprs = tuple(col(n).bind(self.schema) for n in names)
        return self._derive(logical.Project(self._plan, out_schema, exprs))

    def with_column(self, name, expression):
        """Append (or replace) a column computed from *expression*."""
        if not isinstance(expression, Expression):
            raise PlanError(
                "with_column expects an unbound expression, got {!r}".format(
                    type(expression).__name__
                )
            )
        bound = expression.bind(self.schema)
        if name in self.schema:
            exprs = []
            for existing in self.schema.names:
                if existing == name:
                    exprs.append(bound)
                else:
                    exprs.append(col(existing).bind(self.schema))
            return self._derive(
                logical.Project(self._plan, self.schema, tuple(exprs))
            )
        out_schema = self.schema.append(name)
        exprs = tuple(
            col(n).bind(self.schema) for n in self.schema.names
        ) + (bound,)
        return self._derive(logical.Project(self._plan, out_schema, exprs))

    def flat_map(self, func, output_columns):
        """Expand each row tuple into zero or more output row tuples.

        *func* must be picklable and accept the input row as a tuple.
        """
        out_schema = Schema.of(*output_columns)
        return self._derive(logical.FlatMap(self._plan, out_schema, func))

    def map_partitions(self, func, output_columns=None):
        """Apply *func* to every partition (a list of row tuples)."""
        if output_columns is None:
            out_schema = self.schema
        else:
            out_schema = Schema.of(*output_columns)
        return self._derive(logical.MapPartitions(self._plan, out_schema, func))

    # -- wide transformations ----------------------------------------------
    def join(self, other, on):
        """Inner equi-join with *other* on shared key column names.

        *on* is a column name or list of names present in both tables. The
        result carries the left columns followed by the right non-key
        columns.
        """
        if self._context is not other._context:
            raise PlanError("cannot join tables from different contexts")
        keys = [on] if isinstance(on, str) else list(on)
        for key in keys:
            if key not in self.schema or key not in other.schema:
                raise SchemaError(
                    "join key {!r} must exist in both tables".format(key)
                )
        overlap = (
            set(self.schema.names)
            & set(other.schema.names) - set(keys)
        )
        if overlap:
            raise SchemaError(
                "non-key columns {} exist in both tables; rename one side".format(
                    sorted(overlap)
                )
            )
        right_rest = other.schema.drop(keys)
        out_schema = self.schema.concat(right_rest)
        return self._derive(
            logical.Join(self._plan, other._plan, tuple(keys), out_schema)
        )

    def union(self, other):
        """Concatenate rows of two tables with identical column names."""
        if self.schema.names != other.schema.names:
            raise SchemaError(
                "union requires identical columns: {} vs {}".format(
                    list(self.schema.names), list(other.schema.names)
                )
            )
        return self._derive(logical.Union(self._plan, other._plan))

    def sort(self, keys):
        """Globally and stably sort ascending by *keys* (a name or list
        of names)."""
        names = [keys] if isinstance(keys, str) else list(keys)
        for name in names:
            self.schema.index_of(name)
        return self._derive(logical.Sort(self._plan, tuple(names)))

    def repartition(self, num_partitions):
        """Redistribute rows, in order, across *num_partitions*
        contiguous partitions."""
        return self._derive(logical.Repartition(self._plan, num_partitions))

    def split_by_key(self, key, keys=None):
        """Split into one table per distinct value of column *key*.

        A single routed pass over the data (one shuffle stage) replaces
        the one-filter-scan-per-key fan-out: every row is routed by its
        *key* value into a named group and each group is returned as a
        materialized :class:`Table` backed by co-partitioned sources.
        Group partitions mirror the input partitioning -- group
        partition ``i`` holds input partition ``i``'s rows with that
        key value, in order -- so each group equals the corresponding
        ``filter(col(key) == value)`` exactly (same rows, same order,
        same partition count), and sibling groups are co-partitioned
        with each other.

        When *keys* is given the result maps exactly those keys in that
        order (absent keys map to empty tables of the same schema);
        otherwise keys are discovered from the data and ordered
        deterministically.

        Returns a ``{key value: Table}`` dict.
        """
        self.schema.index_of(key)  # validate eagerly
        groups, _num_partitions = self._context.executor.execute_split(
            self._plan, key, keys=keys
        )
        if keys is None:
            ordered = sorted(groups, key=_split_group_order)
        else:
            ordered = list(groups)
        return {
            value: self._context.table_from_columnar(
                self.schema.names, groups[value]
            )
            for value in ordered
        }

    def explain(self):
        """Human-readable rendering of the logical plan."""
        lines = []
        _explain_node(self._plan, 0, lines)
        return "\n".join(lines)

    # -- actions -----------------------------------------------------------
    def collect(self):
        """Execute the plan and return all rows as a list of tuples."""
        partitions = self._context.executor.execute(self._plan)
        return [row for part in partitions for row in part]

    def collect_partitions(self):
        """Execute the plan and return the raw list of partitions."""
        return self._context.executor.execute(self._plan)

    def count(self):
        """Number of rows in the table."""
        return self._context.executor.count(self._plan)

    def cache(self):
        """Materialize the plan into a new in-memory source table.

        Partitions keep the layout the plan produced them in: a
        columnar partition is held as-is (its packed columns undecoded),
        a row list is frozen to a tuple.
        """
        partitions = self._context.executor.execute(self._plan, as_rows=False)
        node = logical.Source(
            self.schema,
            tuple(
                p if isinstance(p, ColumnarPartition) else tuple(p)
                for p in partitions
            ),
        )
        return self._derive(node)

    def column_values(self, name):
        """Collect the values of one column as a list."""
        return [row[0] for row in self.select(name).collect()]

    # -- internals -----------------------------------------------------------
    def _derive(self, node):
        return Table(self._context, node)


def _split_group_order(value):
    """Deterministic ordering for heterogeneous split-group keys."""
    return (type(value).__name__, value)


def _explain_node(node, depth, lines):
    indent = "  " * depth
    name = type(node).__name__
    details = ""
    if isinstance(node, logical.Source):
        details = " partitions={} rows={}".format(
            len(node.partitions), sum(len(p) for p in node.partitions)
        )
    elif isinstance(node, (logical.Join, logical.Sort)):
        details = " keys={}".format(list(node.keys))
    elif isinstance(node, logical.Repartition):
        details = " n={}".format(node.num_partitions)
    elif isinstance(node, logical.Project):
        details = " columns={}".format(list(node.out_schema.names))
    lines.append("{}{}{}".format(indent, name, details))
    for child in node.children():
        _explain_node(child, depth + 1, lines)
