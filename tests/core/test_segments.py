"""The segmented stages of lines 10-28 against their row references.

``repro.core`` runs reduction, Table 3 and the branches once over a
:class:`~repro.core.sequence.Sequences` set of every sequence of a run.
The property below draws sets of several segments -- empty, one
element, two and more, values of one type or mixed -- and holds every
segment's result to the row code in ``tests/core/row_reference.py``,
cell by cell by ``repr``. Timestamps take gaps from 10^-3 to 10^3, so a
segmented or pairwise sum of Eq. 2's active duration would round
differently from the sequential one and be caught. Those segments are
too short to fill a SWAB buffer, so a second property runs α alone on
segments of 40-300 elements.
"""

from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import ZScoreDetector
from repro.core import ClassifierConfig, UnchangedValue, ValueInSet
from repro.core.branches import BranchConfig, branch_segments
from repro.core.classification import (
    ALPHA,
    NUMERIC,
    Classification,
    classify_segments,
)
from repro.core.model import LABEL, NUMBER, OBJECT
from repro.core.reduction import MarkerFunction
from repro.core.sequence import Sequences, objects, reduce_segments
from repro.engine import Schema
from tests.core import row_reference as ref
from tests.core.test_classification import reference_change_rate
from tests.core.test_typed_stages import BRANCHES, MARKERS, VALUES

SCHEMA = Schema.of("t", "v", "s_id", "b_id")

#: Per segment, its values: drawn from VALUES (mixed types, NaN, -0.0,
#: TRUNCATED), or of one type -- floats over six decades, ints, labels.
segment_values = st.one_of(
    st.lists(st.sampled_from(VALUES), max_size=12),
    st.lists(st.floats(1e-3, 1e3) | st.floats(-1e3, -1e-3), max_size=12),
    st.lists(st.integers(-3, 3), max_size=12),
    st.lists(st.sampled_from(("low", "medium", "high", "invalid", "on")),
             max_size=12),
)
#: Gaps between timestamps: ties, and magnitudes from 10^-3 to 10^3.
gaps = st.sampled_from((0.0, 0.001)) | st.floats(1e-3, 1e3)


@st.composite
def segment_sets(draw):
    """``(keys, per-segment rows)``: one to six segments in key order,
    one or two channels per signal type, every one time-ordered."""
    signals = draw(st.integers(1, 4))
    keys = sorted({
        ("s{}".format(i), channel)
        for i in range(signals)
        for channel in draw(st.sets(st.sampled_from(("BC", "FC")),
                                    min_size=1))
    })
    segments = []
    for s_id, b_id in keys:
        values = draw(segment_values)
        t, rows = draw(st.floats(0, 10)), []
        for value in values:
            t += draw(gaps)
            rows.append((t, value, s_id, b_id))
        segments.append(rows)
    return keys, segments


def _build(keys, segments):
    rows = [row for segment in segments for row in segment]
    offsets = [0]
    for segment in segments:
        offsets.append(offsets[-1] + len(segment))
    columns = (
        objects([row[i] for row in rows]) for i in (0, 1, 3)
    )
    t, v, b = columns
    return Sequences.build(keys, offsets, t, v, b)


def _cells(rows):
    return [tuple(map(repr, row)) for row in rows]


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@given(drawn=segment_sets(), data=st.data())
@settings(max_examples=150, deadline=None)
def test_segmented_stages_equal_the_row_reference(drawn, data):
    keys, segments = drawn
    sequences = _build(keys, segments)
    kinds = sequences.kinds.tolist()
    assert set(kinds) <= {NUMBER, LABEL, OBJECT}
    for i in range(1, len(keys)):  # one kind per signal type
        assert keys[i][0] != keys[i - 1][0] or kinds[i] == kinds[i - 1]
    assert [(key, _cells(seq.rows())) for key, seq in sequences.items()] \
        == [(key, _cells(rows)) for key, rows in zip(keys, segments)]

    # Lines 10-11, with a carry per segment and marker.
    markers = [
        tuple(data.draw(st.lists(st.sampled_from(MARKERS), max_size=2)))
        for _key in keys
    ]
    carries = [{} for _key in keys]
    reduced = reduce_segments(sequences, markers, carries)
    expected, expected_carries = [], []
    for rows, functions in zip(segments, markers):
        kept = {}
        expected.append(ref.reduce_sequence(
            rows, tuple(map(ref.row_marker, functions)), kept
        ))
        expected_carries.append(kept)
    assert [_cells(reduced.sequence(i).rows()) for i in range(len(keys))] \
        == [_cells(rows) for rows in expected]
    assert repr(carries) == repr(expected_carries)

    # Table 3, per reduced segment.
    config = ClassifierConfig()
    classifications = classify_segments(reduced, config)
    for classification, rows in zip(classifications, expected):
        times = [row[0] for row in rows]
        values = [row[1] for row in rows]
        criteria = ref.compute_criteria(times, values, config)
        assert repr(classification.criteria) == repr(criteria)
        assert classification.criteria.z_rate == \
            reference_change_rate(times, config)

    # Lines 13-28, on a drawn branch per segment.
    drawn_branches = [data.draw(st.sampled_from(BRANCHES)) for _key in keys]
    out = branch_segments(reduced, drawn_branches, BranchConfig())
    assert [_cells(rows) for rows in out] == [
        _cells(ref.process_branch(rows, SCHEMA, classification))
        for rows, classification in zip(expected, drawn_branches)
    ]


@dataclass
class _EveryTwo(MarkerFunction):
    """A marker without a hash (``eq`` without ``frozen``)."""

    def flags(self, times, values, prev):
        return [value == 2 for value in values.tolist()]


@pytest.mark.parametrize("marker", [
    _EveryTwo(),  # no __hash__ at all
    ValueInSet({2}),  # a __hash__ that raises: a field is a plain set
], ids=["no-hash", "unhashable-field"])
def test_unhashable_markers_reduce_per_instance(marker):
    with pytest.raises(TypeError):
        hash(marker)
    keys = [("s", "BC"), ("s", "FC")]
    segments = [[(0.1 * i, i % 3, s_id, b_id) for i in range(6)]
                for s_id, b_id in keys]
    reduced = reduce_segments(
        _build(keys, segments), [(marker, UnchangedValue()), (marker,)],
        [{}, {}],
    )
    assert [_cells(seq.rows()) for seq in reduced.values()] == [
        _cells([row for row in rows if row[1] != 2]) for rows in segments
    ]


def test_a_trace_without_signal_rows_classifies_every_empty_sequence(ctx):
    """No split segment at all: every signal type still gets its empty
    sequence, selected into the run's set, classified (Table 3's
    fallback) and no row."""
    from repro.core import PipelineConfig, PreprocessingPipeline
    from repro.datasets import SPECS, build_dataset
    from repro.protocols.frames import BYTE_RECORD_COLUMNS

    bundle = build_dataset(SPECS["SYN"])
    result = PreprocessingPipeline(PipelineConfig(
        catalog=bundle.catalog(), constraints=bundle.default_constraints(),
    )).run(ctx.table_from_rows(list(BYTE_RECORD_COLUMNS), []))
    assert set(result.classification_summary().values()) == \
        {("nominal", "gamma")}
    assert len(result.outcomes) == len(set(bundle.catalog().signal_ids()))
    assert result.r_out.collect() == []


#: α segments long enough to fill SWAB buffers (40 samples by default).
ALPHA_SHAPES = ("line", "steps", "spikes", "constant", "validity")


@st.composite
def alpha_segment(draw):
    """40-300 values: a line, steps with noise, noise with spikes, a
    constant (std 0), or noise carrying validity strings (an object-kind
    segment)."""
    n = draw(st.integers(40, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    shape = draw(st.sampled_from(ALPHA_SHAPES))
    i = np.arange(n)
    if shape == "line":
        values = draw(st.floats(-5, 5)) * i + draw(st.floats(-1e3, 1e3))
    elif shape == "steps":
        values = draw(st.floats(1, 100)) * (i // draw(st.integers(5, 80))) \
            + rng.normal(scale=0.01, size=n)
    elif shape == "constant":
        values = np.full(n, draw(st.floats(-1e3, 1e3)))
    else:
        values = rng.normal(size=n)
        values[rng.integers(0, n, 3)] = draw(st.sampled_from([1e3, -1e4]))
    values = values.tolist()
    if shape == "validity":
        for at in rng.integers(0, n, draw(st.integers(1, 5))).tolist():
            values[at] = draw(st.sampled_from(("invalid", "init", "on")))
    return values


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@given(
    drawn=st.lists(alpha_segment(), min_size=1, max_size=4),
    all_outliers=st.booleans(),
    buffer=st.sampled_from([8, 40]),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_alpha_over_full_swab_buffers_equals_the_row_reference(
    drawn, all_outliers, buffer, data
):
    """α over segments of 40-300 elements: SWAB fills whole buffers,
    and the set-level levels, symbols and trends meet the row code. A
    threshold near zero makes every value off the mean an outlier."""
    keys = [("s{}".format(i // 2), ("BC", "FC")[i % 2])
            for i in range(len(drawn))]
    segments = []
    for (s_id, b_id), values in zip(keys, drawn):
        t = data.draw(st.floats(0, 10))
        rows = []
        for value in values:
            t += data.draw(gaps)
            rows.append((t, value, s_id, b_id))
        segments.append(rows)
    config = BranchConfig(
        outlier_detector=ZScoreDetector(1e-9 if all_outliers else 3.5),
        swab_buffer=buffer,
    )
    alpha = Classification(None, NUMERIC, ALPHA)
    out = branch_segments(_build(keys, segments), [alpha] * len(keys),
                          config)
    assert [_cells(rows) for rows in out] == [
        _cells(ref.process_branch(rows, SCHEMA, alpha, config))
        for rows in segments
    ]
