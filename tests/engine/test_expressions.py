"""Expression building, binding and evaluation."""


import pytest

from repro.engine import Schema, col
from repro.engine.errors import SchemaError
from repro.engine.expressions import lit
from repro.engine.expressions import apply

SCHEMA = Schema.of("t", "m_id", "b_id")
ROW = (2.5, 3, "FC")


def evaluate(expression, row=ROW, schema=SCHEMA):
    return expression.bind(schema)(row)


class TestColumnAndLiteral:
    def test_column_reads_value(self):
        assert evaluate(col("m_id")) == 3

    def test_literal_ignores_row(self):
        assert evaluate(lit(42)) == 42

    def test_unknown_column_raises_at_bind(self):
        with pytest.raises(SchemaError):
            col("nope").bind(SCHEMA)


class TestComparisons:
    @pytest.mark.parametrize(
        "expression, expected",
        [
            (col("m_id") == 3, True),
            (col("m_id") != 3, False),
            (col("t") < 3.0, True),
            (col("t") <= 2.5, True),
            (col("t") > 2.5, False),
            (col("t") >= 2.5, True),
            (col("b_id") == "FC", True),
        ],
    )
    def test_comparison(self, expression, expected):
        assert evaluate(expression) is expected


class TestArithmetic:
    def test_add_sub_mul_div(self):
        assert evaluate(col("t") + 0.5) == 3.0
        assert evaluate(col("t") - 0.5) == 2.0
        assert evaluate(col("m_id") * 2) == 6
        assert evaluate(col("t") / 2) == 1.25

    def test_expression_on_both_sides(self):
        assert evaluate(col("t") + col("m_id")) == 5.5


class TestBooleanCombinators:
    def test_and(self):
        assert evaluate((col("m_id") == 3) & (col("b_id") == "FC"))

    def test_or(self):
        assert evaluate((col("m_id") == 9) | (col("b_id") == "FC"))

    def test_invert(self):
        assert evaluate(~(col("m_id") == 9))

    def test_and_short_circuits_to_bool(self):
        result = evaluate((col("m_id") == 3) & (col("t") > 100))
        assert result is False


class TestMembershipAndNull:
    def test_is_in(self):
        assert evaluate(col("m_id").is_in([1, 2, 3]))
        assert not evaluate(col("m_id").is_in([4, 5]))

    def test_is_null_and_not_null(self):
        schema = Schema.of("v")
        assert col("v").is_null().bind(schema)((None,))
        assert col("v").is_not_null().bind(schema)((7,))


def _double(x):
    return 2 * x


class TestApply:
    def test_apply_positional_columns(self):
        assert evaluate(apply(_double, "m_id")) == 6

    def test_apply_multiple_columns(self):
        def diff(a, b):
            return a - b

        assert evaluate(apply(diff, "t", "m_id")) == -0.5
