"""Table schemas.

A :class:`Schema` is an ordered mapping of column names to (optional)
logical types. Rows are stored as plain tuples; the schema provides the
name-to-index mapping every operator uses to bind column references.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.engine.errors import SchemaError

#: Logical column types. These are advisory -- the engine is dynamically
#: typed like Spark's Python rows -- but datasets and protocol decoders use
#: them to document what a column carries.
FLOAT = "float"
INT = "int"
STRING = "string"
BYTES = "bytes"
BOOL = "bool"
ANY = "any"

_VALID_TYPES = frozenset({FLOAT, INT, STRING, BYTES, BOOL, ANY})


@dataclass(frozen=True)
class Field:
    """A named, typed column of a table."""

    name: str
    dtype: str = ANY

    def __post_init__(self):
        if not self.name:
            raise SchemaError("field name must be non-empty")
        if self.dtype not in _VALID_TYPES:
            raise SchemaError(
                "unknown dtype {!r} for field {!r}; expected one of {}".format(
                    self.dtype, self.name, sorted(_VALID_TYPES)
                )
            )


@dataclass(frozen=True)
class Schema:
    """An ordered collection of :class:`Field` objects.

    Examples
    --------
    >>> schema = Schema.of("t", "payload", "bus_id")
    >>> schema.index_of("payload")
    1
    >>> schema.names
    ('t', 'payload', 'bus_id')
    """

    fields: tuple = field(default_factory=tuple)

    def __post_init__(self):
        names = [f.name for f in self.fields]
        duplicates = {n for n in names if names.count(n) > 1}
        if duplicates:
            raise SchemaError(
                "duplicate column names: {}".format(sorted(duplicates))
            )

    @classmethod
    def of(cls, *names, dtypes=None):
        """Build a schema from column names, optionally with dtypes.

        Parameters
        ----------
        names:
            Column names in order.
        dtypes:
            Optional sequence of dtype strings, parallel to *names*.
        """
        if dtypes is None:
            dtypes = [ANY] * len(names)
        if len(dtypes) != len(names):
            raise SchemaError("dtypes must be parallel to names")
        return cls(tuple(Field(n, d) for n, d in zip(names, dtypes)))

    @property
    def names(self):
        return tuple(f.name for f in self.fields)

    def __len__(self):
        return len(self.fields)

    def __contains__(self, name):
        return any(f.name == name for f in self.fields)

    def __iter__(self):
        return iter(self.fields)

    def index_of(self, name):
        """Return the tuple index of column *name*.

        Raises
        ------
        SchemaError
            If the column does not exist.
        """
        for i, f in enumerate(self.fields):
            if f.name == name:
                return i
        raise SchemaError(
            "no column {!r} in schema {}".format(name, list(self.names))
        )

    def field_for(self, name):
        return self.fields[self.index_of(name)]

    def select(self, names):
        """Return a new schema containing only *names*, in that order."""
        return Schema(tuple(self.field_for(n) for n in names))

    def drop(self, names):
        """Return a new schema without the columns in *names*."""
        dropped = set(names)
        missing = dropped - set(self.names)
        if missing:
            raise SchemaError(
                "cannot drop unknown columns: {}".format(sorted(missing))
            )
        return Schema(tuple(f for f in self.fields if f.name not in dropped))

    def append(self, name, dtype=ANY):
        """Return a new schema with an extra column appended."""
        if name in self:
            raise SchemaError("column {!r} already exists".format(name))
        return Schema(self.fields + (Field(name, dtype),))

    def concat(self, other):
        """Return the concatenation of two schemas (used by joins)."""
        return Schema(self.fields + other.fields)

