"""The shared sequence stages (Algorithm 1 lines 10-29, one copy).

Whole-trace and windowed runs are drivers over these functions, so what
used to be parity between two implementations is a property of one:
reducing a sequence chunk by chunk, with the explicit carry, equals
reducing it at once.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    Constraint,
    GapExtension,
    MinimumGap,
    OutsideQuantileRange,
    Predicate,
    TRUNCATED,
    UnchangedValue,
    UnchangedWithinCycle,
    ValueInSet,
    apply_extensions,
    reduce_signal,
)
from repro.core.classification import ALPHA
from repro.core.sequence import (
    classify_sequence,
    order_sequence,
    reduce_sequence,
)
from repro.engine import EngineContext


def _is_odd(_t, v):
    return v % 2 == 1


#: Every bundled marker whose decisions depend on the past only through
#: its carry. ``OutsideQuantileRange`` aggregates over the rows it is
#: handed, so no carry makes it chunk-invariant (see its docstring); its
#: partition invariance is pinned in TestEngineWrappers instead.
CARRY_MARKERS = [
    UnchangedValue(),
    UnchangedWithinCycle(cycle_time=0.1, tolerance=1.5),
    MinimumGap(min_gap=0.25),
    ValueInSet(frozenset({0, 3})),
    Predicate(_is_odd),
]


def _sequence(gaps, values):
    rows, t = [], 0.0
    for gap, value in zip(gaps, values):
        t = round(t + gap, 6)
        rows.append((t, value, "s", "FC"))
    return rows


sequences = st.integers(min_value=1, max_value=40).flatmap(
    lambda n: st.tuples(
        st.lists(st.sampled_from((0.0, 0.05, 0.1, 0.3)),
                 min_size=n, max_size=n),
        st.lists(st.integers(min_value=0, max_value=3),
                 min_size=n, max_size=n),
    )
)


class TestChunkedEqualsUnchunked:
    @pytest.mark.parametrize(
        "marker", CARRY_MARKERS, ids=lambda m: type(m).__name__
    )
    @given(sequence=sequences, data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_any_chunk_boundaries(self, marker, sequence, data):
        rows = order_sequence(_sequence(*sequence))
        cuts = sorted(data.draw(st.sets(
            st.integers(min_value=0, max_value=len(rows)), max_size=6
        )))
        functions = (marker,)
        whole = reduce_sequence(rows, functions, {})
        carries, chunked = {}, []
        for start, end in zip([0] + cuts, cuts + [len(rows)]):
            chunked.extend(
                reduce_sequence(rows[start:end], functions, carries)
            )
        assert chunked == whole

    def test_markers_combine_by_disjunction_with_separate_carries(self):
        """Eq. 1 across a boundary: each marker continues from its own
        carry (MinimumGap's last *kept* element, UnchangedValue's last
        raw one)."""
        rows = _sequence([0.1] * 12, [1, 1, 2, 2, 2, 3, 3, 1, 1, 1, 2, 2])
        functions = (UnchangedValue(), MinimumGap(min_gap=0.25))
        whole = reduce_sequence(rows, functions, {})
        carries = {}
        chunked = reduce_sequence(rows[:5], functions, carries)
        chunked += reduce_sequence(rows[5:], functions, carries)
        assert chunked == whole
        assert 0 < len(whole) < len(rows)

    def test_no_functions_passes_rows_through(self):
        rows = _sequence([0.1, 0.1], [1, 1])
        carries = {}
        assert reduce_sequence(rows, (), carries) == rows
        assert carries == {}


class TestOrderSequence:
    def test_same_timestamp_ties_break_on_the_value(self):
        rows = [(1.0, 7, "s", "FC"), (1.0, TRUNCATED, "s", "FC"),
                (0.5, "x", "s", "FC"), (1.0, 2.5, "s", "FC")]
        ordered = order_sequence(rows)
        assert ordered == order_sequence(list(reversed(rows)))
        assert ordered[0][0] == 0.5
        assert [repr(r[1]) for r in ordered[1:]] == sorted(
            repr(r[1]) for r in ordered[1:]
        )


class TestClassifySequence:
    def test_fast_numeric_rows_are_alpha(self):
        rows = [(0.01 * i, float(i), "s", "FC") for i in range(200)]
        assert classify_sequence(rows).branch == ALPHA


class TestEngineWrappers:
    """reduce_signal / apply_extensions: one task per sequence."""

    @pytest.mark.parametrize(
        "marker",
        CARRY_MARKERS + [OutsideQuantileRange(0.0, 0.8)],
        ids=lambda m: type(m).__name__,
    )
    def test_reduce_signal_ignores_partitioning(self, marker):
        """Neither the table's partitions nor the context's parallelism
        (which used to cut the sorted sequence into per-task chunks, and
        with it OutsideQuantileRange's band) can change the result."""
        rows = _sequence(
            [0.1] * 60, [(i // 2 * 7) % 4 if i % 9 else 50 for i in range(60)]
        )
        constraints = [Constraint("s", True, (marker,))]
        expected = reduce_sequence(order_sequence(rows), (marker,), {})
        assert 0 < len(expected) < len(rows)
        for parts in (1, 3, 8):
            ctx = EngineContext.serial(default_parallelism=parts)
            table = ctx.table_from_rows(
                ["t", "v", "s_id", "b_id"], rows, num_partitions=parts + 1
            )
            assert reduce_signal(table, constraints).collect() == expected

    def test_apply_extensions_ignores_partitioning(self, ctx):
        rows = _sequence([0.1, 0.3, 0.2, 0.4, 0.1], [1, 2, 3, 4, 5])
        rule = GapExtension("s")
        expected = None
        for parts in (1, 2, 5):
            table = ctx.table_from_rows(
                ["t", "v", "s_id", "b_id"], list(reversed(rows)),
                num_partitions=parts,
            )
            got = apply_extensions(table, [rule]).collect()
            expected = expected or got
            assert got == expected
        assert [r[1] for r in expected] == [0.3, 0.2, 0.4, 0.1]

    def test_columns_are_taken_by_name(self, ctx):
        """The stages read K_s-layout rows by position; the wrappers
        project any table that has the four columns into that layout."""
        rows = [(7, 0.1 * i, "FC", "s") for i in range(4)]
        table = ctx.table_from_rows(["v", "t", "b_id", "s_id"], rows)
        reduced = reduce_signal(
            table, [Constraint("s", True, (UnchangedValue(),))]
        )
        assert reduced.collect() == [(0.0, 7, "s", "FC")]
        gaps = apply_extensions(table, [GapExtension("s")]).collect()
        assert [r[1] for r in gaps] == [0.1, 0.1, 0.1]
