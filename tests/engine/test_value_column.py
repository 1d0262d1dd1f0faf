"""``ValueColumn``: decoded values as a float64 plane and a kind byte
per cell yields exactly the cells of the object list it stands for.

A column is drawn over mixed cells -- floats with ``-0.0``, NaN and
infinities, ints at and beyond 2**53 and 2**64, labels (``raw_N`` of
raws at and above 2**53 too), ``TRUNCATED``, None, bools -- in two
forms: typed (:meth:`ValueColumn.from_values`) and untyped, every cell
an object slot as the rule kernels hold scalar-rule values. Under
iteration, indexing, slicing, gather, compress, concat and ``to_rows``
each form's cells equal the list's in type and value, and the table
store encodes each form to the bytes of the list.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.columnar import (
    OBJECT,
    ColumnarPartition,
    ValueColumn,
    compress_column,
    gather_column,
)
from repro.engine.storage import encode_partition, names_block
from repro.sentinels import TRUNCATED

CELLS = st.one_of(
    st.floats(),
    st.sampled_from([-0.0, float("nan"), float("inf"), TRUNCATED, None,
                     True]),
    st.integers(-10, 10),
    st.integers(2 ** 53 - 2, 2 ** 53 + 2).map(lambda n: n * (-1) ** (n % 3)),
    st.integers(2 ** 63 - 2, 2 ** 64 + 2),
    st.sampled_from(["on", "off", "raw_9007199254740992",
                     "raw_9007199254740993", "raw_18446744073709551615"]),
)
COLUMNS = st.lists(CELLS, max_size=12)


def _typed(cells):
    return [(type(cell), repr(cell)) for cell in cells]


def _forms(cells):
    """The typed and the untyped column of *cells*."""
    n = len(cells)
    untyped = ValueColumn(np.arange(n, dtype=float),
                          np.full(n, OBJECT, np.uint8), (), tuple(cells))
    return ValueColumn.from_values(cells), untyped


def _stored(column, n):
    return encode_partition("t", ["v"], names_block(["v"]),
                            ColumnarPartition([column], n))


@settings(max_examples=300, deadline=None)
@given(cells=COLUMNS, data=st.data())
def test_every_form_yields_the_cells_of_its_list(cells, data):
    n = len(cells)
    indices = data.draw(st.lists(st.integers(0, max(n - 1, 0)),
                                 max_size=2 * n))
    mask = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    start, stop = sorted(data.draw(st.tuples(st.integers(-n - 1, n + 1),
                                             st.integers(-n - 1, n + 1))))
    for column in _forms(cells):
        assert len(column) == n
        assert _typed(column) == _typed(cells)
        assert _typed(column.tolist()) == _typed(cells)
        assert _typed(column[i] for i in range(-n, n)) == \
            _typed(cells + cells)
        assert _typed(column[start:stop]) == _typed(cells[start:stop])
        picked = [cells[i] for i in indices]
        assert _typed(column.gather(indices)) == _typed(picked)
        assert _typed(gather_column(column, np.array(indices, np.intp))) \
            == _typed(picked)
        assert _typed(compress_column(column, mask)) == \
            _typed([cell for cell, keep in zip(cells, mask) if keep])
        assert _typed(r for (r,) in ColumnarPartition([column], n).to_rows()) \
            == _typed(cells)
        assert _stored(column, n) == _stored(list(cells), n)


@settings(max_examples=200, deadline=None)
@given(first=COLUMNS, second=COLUMNS)
def test_concat_keeps_cells_over_equal_and_different_dictionaries(
    first, second
):
    """A column after itself (one dictionary), after its twin (equal
    dictionaries) and after another column (different dictionaries)."""
    for a in _forms(first):
        for b, cells in [(a, first)] + [
            (b, drawn) for drawn in (first, second) for b in _forms(drawn)
        ]:
            expected = first + cells
            joined = ValueColumn.concat([a, b])
            assert _typed(joined) == _typed(expected)
            assert _stored(joined, len(expected)) == \
                _stored(list(expected), len(expected))
            column = ColumnarPartition.concat([
                ColumnarPartition([c], len(c)) for c in (a, b, a)
            ]).column(0)
            assert isinstance(column, ValueColumn)
            assert _typed(column) == _typed(expected + first)


def test_a_label_column_shares_one_dictionary_after_concat():
    a = ValueColumn.from_values(["on", "off", "on"])
    b = ValueColumn.from_values(["err", "on"])
    joined = ValueColumn.concat([a, a, b])
    assert joined.labels == ("on", "off", "err")
    assert joined.tolist() == ["on", "off", "on"] * 2 + ["err", "on"]


def test_the_column_names_its_store_layout():
    """All present cells of one kind store as that kind's plane; a mixed
    column keeps the tagged form."""
    assert ValueColumn.from_values([1.5, -0.0]).plane().typecode == "d"
    assert ValueColumn.from_values([3, -(2 ** 53)]).plane().typecode == "q"
    assert list(ValueColumn.from_values(["b", "a", "b"]).plane()) == \
        ["b", "a", "b"]
    assert ValueColumn.from_values([1.0, 1]).plane() == [1.0, 1]
    assert ValueColumn.from_values([]).plane() == []
    big = ValueColumn.from_values([2 ** 53 + 1])
    assert big.kinds.tolist() == [OBJECT] and big.plane() == [2 ** 53 + 1]
