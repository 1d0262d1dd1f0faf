"""Table schemas.

A :class:`Schema` is the ordered tuple of a table's column names. Rows
are stored as plain tuples; the schema provides the name-to-index
mapping every operator uses to bind column references. The engine is
dynamically typed, like Spark's Python rows, so a column has no type.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.engine.errors import SchemaError


@dataclass(frozen=True)
class Schema:
    """An ordered collection of distinct, non-empty column names.

    Examples
    --------
    >>> schema = Schema.of("t", "payload", "bus_id")
    >>> schema.index_of("payload")
    1
    >>> schema.names
    ('t', 'payload', 'bus_id')
    """

    names: tuple = ()

    def __post_init__(self):
        if not all(self.names):
            raise SchemaError("column names must be non-empty")
        duplicates = {n for n in self.names if self.names.count(n) > 1}
        if duplicates:
            raise SchemaError(
                "duplicate column names: {}".format(sorted(duplicates))
            )

    @classmethod
    def of(cls, *names):
        """Build a schema from column names, in order."""
        return cls(tuple(names))

    def __len__(self):
        return len(self.names)

    def __contains__(self, name):
        return name in self.names

    def index_of(self, name):
        """Return the tuple index of column *name*.

        Raises
        ------
        SchemaError
            If the column does not exist.
        """
        try:
            return self.names.index(name)
        except ValueError:
            raise SchemaError(
                "no column {!r} in schema {}".format(name, list(self.names))
            )

    def select(self, names):
        """Return a new schema containing only *names*, in that order."""
        return Schema(tuple(self.names[self.index_of(n)] for n in names))

    def drop(self, names):
        """Return a new schema without the columns in *names*."""
        dropped = set(names)
        missing = dropped - set(self.names)
        if missing:
            raise SchemaError(
                "cannot drop unknown columns: {}".format(sorted(missing))
            )
        return Schema(tuple(n for n in self.names if n not in dropped))

    def append(self, name):
        """Return a new schema with an extra column appended."""
        if name in self:
            raise SchemaError("column {!r} already exists".format(name))
        return Schema(self.names + (name,))

    def concat(self, other):
        """Return the concatenation of two schemas (used by joins)."""
        return Schema(self.names + other.names)
