"""The typed stages of lines 7-28 against their row references.

``repro.core`` runs lines 7-28 on typed sequences; the row code they
replaced is kept in ``tests/core/row_reference.py``. Each property holds
a typed stage to its reference element for element and type for type:
cells are compared by ``repr``, the form ``R_out`` is digested in, so
``1``, ``1.0`` and ``True`` never pass for one another.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.trend import TrendClassifier
from repro.core import (
    MinimumGap,
    OutsideQuantileRange,
    Predicate,
    TRUNCATED,
    UnchangedValue,
    UnchangedWithinCycle,
    ValueInSet,
    classify,
    compute_criteria,
)
from repro.core import sequence as stages
from repro.core.branches import process_branch
from repro.core.classification import (
    ALPHA,
    BETA,
    BINARY,
    GAMMA,
    NOMINAL,
    NUMERIC,
    ORDINAL,
    Classification,
)
from repro.engine import Schema
from tests.core import row_reference as ref

SCHEMA = Schema.of("t", "v", "s_id", "b_id")

#: Values equal across types and signs, a NaN (one object, so equal to
#: itself in a tuple), labels and the TRUNCATED sentinel.
VALUES = (
    0, 1, 1.0, 0.0, -0.0, True, False, 2.5, float("nan"), "on", "invalid",
    TRUNCATED,
)


def _cells(rows):
    return [tuple(map(repr, row)) for row in rows]


def _columns(rows):
    return stages.row_columns(rows) if rows else (stages.objects(()),) * 5


#: Few timestamps, ``int`` ones among them, so draws are full of ties
#: and replayed rows.
k_s_rows = st.lists(
    st.tuples(
        st.sampled_from((0.0, -0.0, 0.5, 1, 1.0, 2.5)),
        st.sampled_from(VALUES),
        st.sampled_from(("s1", "s2")),
        st.sampled_from(("FC", "BC", "DC")),
    ),
    max_size=40,
)


@given(
    rows=k_s_rows, by_channel=st.booleans(), drop=st.booleans(),
    replays=st.lists(st.integers(0, 39), max_size=5),
)
@settings(max_examples=100, deadline=None)
def test_split_equals_the_row_reference(rows, by_channel, drop, replays):
    rows = rows + [rows[i] for i in replays if i < len(rows)]
    sequences, dropped = stages.split_sequences(
        _columns(rows), by_channel, drop
    )
    expected, expected_dropped = ref.split_sequences(rows, by_channel, drop)
    assert list(sequences) == list(expected)
    assert {
        key: _cells(seq.rows()) for key, seq in sequences.items()
    } == {key: _cells(seq) for key, seq in expected.items()}
    assert dropped == expected_dropped


def _is_text(_t, v):
    return isinstance(v, str)


MARKERS = [
    UnchangedValue(),
    UnchangedWithinCycle(cycle_time=0.1, tolerance=1.5),
    MinimumGap(min_gap=0.25),
    ValueInSet(frozenset({0, "on"})),
    Predicate(_is_text),
    OutsideQuantileRange(0.1, 0.9),
]

ordered_rows = st.lists(
    st.tuples(st.sampled_from((0, 0.0, 0.05, 0.1, 1)), st.sampled_from(VALUES)),
    min_size=1, max_size=40,
).map(lambda draws: [
    (round(sum(gap for gap, _v in draws[: i + 1]), 6), v, "s", "FC")
    for i, (_gap, v) in enumerate(draws)
])


@pytest.mark.parametrize("marker", MARKERS, ids=lambda m: type(m).__name__)
@given(rows=ordered_rows, data=st.data())
@settings(max_examples=40, deadline=None)
def test_each_marker_chunked_equals_its_row_reference(marker, rows, data):
    """Chunk by chunk, with the carry: the typed reduction keeps what
    the row loop keeps and hands on the same carry after every chunk."""
    rows = ref.order_sequence(rows)
    cuts = sorted(data.draw(st.sets(st.integers(0, len(rows)), max_size=6)))
    twin = (ref.row_marker(marker),)
    typed, expected = [], []
    typed_carries, carries = {}, {}
    for start, end in zip([0] + cuts, cuts + [len(rows)]):
        chunk = rows[start:end]
        typed += stages.reduce_sequence(
            ref.sequence_of(chunk), (marker,), typed_carries
        ).rows()
        expected += ref.reduce_sequence(chunk, twin, carries)
        assert repr(typed_carries) == repr(carries)
    assert _cells(typed) == _cells(expected)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@given(
    times=st.lists(st.floats(-1e3, 1e3), max_size=30).map(sorted),
    values=st.lists(st.sampled_from(VALUES), max_size=30),
)
@settings(max_examples=80, deadline=None)
def test_criteria_of_typed_columns_equal_the_row_reference(times, values):
    times = times[: len(values)]
    values = values[: len(times)]
    assert compute_criteria(
        stages.objects(times), stages.objects(values)
    ) == ref.compute_criteria(times, values)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@given(
    values=st.lists(st.floats(allow_nan=True, allow_infinity=True),
                    max_size=20),
    threshold=st.floats(0.0, 10.0),
)
@settings(max_examples=80, deadline=None)
def test_gradient_labels_equal_the_slope_loop(values, threshold):
    """NaN and ±inf gradients included: a NaN slope is steady."""
    classifier = TrendClassifier(steady_threshold=threshold)
    assert classifier.classify_gradient(values) == \
        ref.classify_gradient(classifier, values)


BRANCHES = [
    Classification(None, NUMERIC, ALPHA),
    Classification(None, ORDINAL, BETA),
    Classification(None, BINARY, GAMMA),
    Classification(None, NOMINAL, GAMMA),
]

branch_values = st.one_of(
    st.sampled_from([v for v in VALUES if v == v]),
    st.floats(-1e3, 1e3),
    st.sampled_from(("low", "medium", "high", "init")),
)


@pytest.mark.parametrize(
    "classification", BRANCHES, ids=lambda c: c.branch + "-" + c.data_type
)
@given(
    gaps=st.lists(st.sampled_from((0, 0.0, 0.01, 0.2, 1)), max_size=60),
    data=st.data(),
    channels=st.lists(st.sampled_from(("FC", "BC")), min_size=60,
                      max_size=60),
)
@settings(max_examples=30, deadline=None)
def test_branches_equal_the_row_reference(
    classification, gaps, data, channels
):
    """Any values on any branch, ties and mixed channels included: the
    rows a typed branch builds are the rows its row twin builds."""
    values = data.draw(
        st.lists(branch_values, min_size=len(gaps), max_size=len(gaps))
    )
    rows = [
        (round(sum(gaps[: i + 1]), 6), v, "s", b)
        for i, (v, b) in enumerate(zip(values, channels))
    ]
    assert _cells(process_branch(ref.sequence_of(rows), classification)) \
        == _cells(ref.process_branch(rows, SCHEMA, classification))


def test_classify_takes_the_typed_columns():
    rows = [(0.01 * i, float(i % 7), "s", "FC") for i in range(200)]
    sequence = ref.sequence_of(rows)
    assert stages.classify_sequence(sequence) == classify(
        [r[0] for r in rows], [r[1] for r in rows]
    )
