"""Column expressions.

Expressions form a small algebra over table columns, mirroring the column
expressions of distributed dataframe APIs. An expression is *unbound* when
built (it references columns by name) and is *bound* against a
:class:`~repro.engine.schema.Schema` before evaluation, which resolves
names to tuple indices.

Examples
--------
>>> from repro.engine.schema import Schema
>>> e = (col("m_id") == 3) & (col("b_id") == "FC")
>>> bound = e.bind(Schema.of("t", "m_id", "b_id"))
>>> bound((2.0, 3, "FC"))
True
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

from repro.engine.errors import SchemaError


class Expression:
    """Base class for unbound column expressions."""

    def bind(self, schema):
        """Resolve column names against *schema*; return a bound callable."""
        raise NotImplementedError

    # -- operator sugar -------------------------------------------------
    def __eq__(self, other):
        return BinaryOp("eq", self, _wrap(other))

    def __ne__(self, other):
        return BinaryOp("ne", self, _wrap(other))

    def __lt__(self, other):
        return BinaryOp("lt", self, _wrap(other))

    def __le__(self, other):
        return BinaryOp("le", self, _wrap(other))

    def __gt__(self, other):
        return BinaryOp("gt", self, _wrap(other))

    def __ge__(self, other):
        return BinaryOp("ge", self, _wrap(other))

    def __add__(self, other):
        return BinaryOp("add", self, _wrap(other))

    def __sub__(self, other):
        return BinaryOp("sub", self, _wrap(other))

    def __mul__(self, other):
        return BinaryOp("mul", self, _wrap(other))

    def __truediv__(self, other):
        return BinaryOp("div", self, _wrap(other))

    def __and__(self, other):
        return BinaryOp("and", self, _wrap(other))

    def __or__(self, other):
        return BinaryOp("or", self, _wrap(other))

    def __invert__(self):
        return UnaryOp("not", self)

    def is_in(self, values):
        """Membership test against a fixed collection of values."""
        return InSet(self, frozenset(values))

    def is_null(self):
        return UnaryOp("is_null", self)

    def is_not_null(self):
        return UnaryOp("is_not_null", self)

    # Expressions are used as dict keys nowhere; identity hash is fine and
    # required because __eq__ is overloaded to build BinaryOps.
    __hash__ = object.__hash__


def _wrap(value):
    return value if isinstance(value, Expression) else Literal(value)


@dataclass(frozen=True, eq=False)
class Column(Expression):
    """Reference to a column by name."""

    name: str

    def bind(self, schema):
        return BoundColumn(schema.index_of(self.name))


@dataclass(frozen=True, eq=False)
class Literal(Expression):
    """A constant value."""

    value: object

    def bind(self, schema):
        return BoundLiteral(self.value)


_BINARY_OPS = {
    "eq": operator.eq,
    "ne": operator.ne,
    "lt": operator.lt,
    "le": operator.le,
    "gt": operator.gt,
    "ge": operator.ge,
    "add": operator.add,
    "sub": operator.sub,
    "mul": operator.mul,
    "div": operator.truediv,
}


@dataclass(frozen=True, eq=False)
class BinaryOp(Expression):
    """A binary operation over two sub-expressions."""

    op: str
    left: Expression
    right: Expression

    def bind(self, schema):
        left = self.left.bind(schema)
        right = self.right.bind(schema)
        if self.op == "and":
            return BoundAnd(left, right)
        if self.op == "or":
            return BoundOr(left, right)
        if self.op not in _BINARY_OPS:
            raise SchemaError("unknown binary op {!r}".format(self.op))
        return BoundBinary(self.op, left, right)


@dataclass(frozen=True, eq=False)
class UnaryOp(Expression):
    """A unary operation over one sub-expression."""

    op: str
    operand: Expression

    def bind(self, schema):
        return BoundUnary(self.op, self.operand.bind(schema))


@dataclass(frozen=True, eq=False)
class InSet(Expression):
    """Membership test of a sub-expression's value in a fixed set."""

    operand: Expression
    values: frozenset

    def bind(self, schema):
        return BoundInSet(self.operand.bind(schema), self.values)


@dataclass(frozen=True, eq=False)
class Apply(Expression):
    """Apply a callable to the values of named columns.

    The callable receives one positional argument per column in *columns*.
    """

    func: object
    columns: tuple

    def bind(self, schema):
        indices = tuple(schema.index_of(c) for c in self.columns)
        return BoundApply(self.func, indices)


# ---------------------------------------------------------------------------
# Bound (index-resolved) expressions. These are the objects actually shipped
# to workers; each is callable on a row tuple.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundColumn:
    index: int

    def __call__(self, row):
        return row[self.index]


@dataclass(frozen=True)
class BoundLiteral:
    value: object

    def __call__(self, row):
        return self.value


@dataclass(frozen=True)
class BoundBinary:
    op: str
    left: object
    right: object

    def __call__(self, row):
        return _BINARY_OPS[self.op](self.left(row), self.right(row))


@dataclass(frozen=True)
class BoundAnd:
    left: object
    right: object

    def __call__(self, row):
        return bool(self.left(row)) and bool(self.right(row))


@dataclass(frozen=True)
class BoundOr:
    left: object
    right: object

    def __call__(self, row):
        return bool(self.left(row)) or bool(self.right(row))


@dataclass(frozen=True)
class BoundUnary:
    op: str
    operand: object

    def __call__(self, row):
        value = self.operand(row)
        if self.op == "not":
            return not value
        if self.op == "is_null":
            return value is None
        if self.op == "is_not_null":
            return value is not None
        raise SchemaError("unknown unary op {!r}".format(self.op))


@dataclass(frozen=True)
class BoundInSet:
    operand: object
    values: frozenset

    def __call__(self, row):
        return self.operand(row) in self.values


@dataclass(frozen=True)
class BoundApply:
    func: object
    indices: tuple

    def __call__(self, row):
        return self.func(*(row[i] for i in self.indices))


# ---------------------------------------------------------------------------
# Public constructors
# ---------------------------------------------------------------------------


def col(name):
    """Reference a column by name."""
    return Column(name)


def lit(value):
    """Wrap a constant value as an expression."""
    return Literal(value)


def apply(func, *columns):
    """Build an expression applying *func* to the listed columns' values."""
    return Apply(func, tuple(columns))
