"""The shared sequence stages (Algorithm 1 lines 7-29, one copy).

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
from repro.core import sequence as stages
from repro.core.classification import ALPHA
from repro.core.sequence import ChannelGroup, equality_groups
from repro.engine import EngineContext


# Row views of the typed stages: rows in, rows out, so the properties
# below read as they did when the stages took rows.
def order_sequence(rows):
    return stages.order_rows(rows).rows()


def reduce_sequence(rows, functions, carries):
    return stages.reduce_sequence(
        stages.order_rows(rows), functions, carries
    ).rows()


def split_sequences(rows, by_channel, drop_exact_duplicates):
    sequences, dropped = stages.split_sequences(
        _columns(rows), by_channel, drop_exact_duplicates
    )
    return {key: seq.rows() for key, seq in sequences.items()}, dropped


def classify_sequence(rows):
    return stages.classify_sequence(stages.order_rows(rows))


def _columns(rows):
    return stages.row_columns(rows) if rows else (stages.objects(()),) * 5


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


def _reference_split(rows, by_channel, drop_exact_duplicates):
    """The obvious lines 7-8, independent of ``repro.core.sequence``:
    drop duplicates, group, sort each group on ``(t, repr(v))`` -- a key
    computed for *every* row, which the shipped stage avoids."""
    kept = list(dict.fromkeys(rows)) if drop_exact_duplicates else rows
    groups = {}
    for row in kept:
        key = (row[2], row[3] if by_channel else None)
        groups.setdefault(key, []).append(row)
    return (
        {
            key: sorted(groups[key], key=lambda r: (r[0], repr(r[1])))
            for key in sorted(groups)
        },
        len(rows) - len(kept),
    )


def _typed(sequences):
    """Rows with their value types: ``1 == 1.0 == True`` must not hide
    which of several equal rows was kept, nor where it was put."""
    return [
        (key, [(repr(t), repr(v), s, b) for t, v, s, b in rows])
        for key, rows in sequences.items()
    ]


#: Few timestamps and values, so draws are full of tie timestamps,
#: replayed rows and rows that are equal across types and signs.
k_s_rows = st.lists(
    st.tuples(
        st.sampled_from((0.0, -0.0, 0.5, 1, 1.0, 2.5)),
        st.sampled_from((0, 0.0, -0.0, 1, 1.0, True, 1.5, "on", TRUNCATED)),
        st.sampled_from(("s1", "s2")),
        st.sampled_from(("FC", "BC", "DC")),
    ),
    max_size=40,
)


class TestSplitSequences:
    @given(
        rows=k_s_rows, by_channel=st.booleans(), drop=st.booleans(),
        replays=st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_equals_the_obvious_reference(
        self, rows, by_channel, drop, replays
    ):
        for index in replays.draw(
            st.lists(st.integers(0, max(len(rows) - 1, 0)), max_size=5)
        ):
            if rows:  # a gateway replaying frame `index` later on
                rows = rows + [rows[index]]
        sequences, dropped = split_sequences(rows, by_channel, drop)
        expected, expected_dropped = _reference_split(rows, by_channel, drop)
        assert _typed(sequences) == _typed(expected)
        assert list(sequences) == sorted(sequences)
        assert dropped == expected_dropped
        assert sum(map(len, sequences.values())) == len(rows) - dropped

    @given(rows=k_s_rows, cuts=st.lists(
        st.sampled_from((0.25, 0.5, 0.75, 1.0, 2.0)), max_size=3
    ))
    @settings(max_examples=100, deadline=None)
    def test_windows_cut_by_time_split_to_the_whole_trace_sequences(
        self, rows, cuts
    ):
        """Tied and equal rows share their timestamp, hence their
        window: per channel, the windows' sequences concatenate to the
        whole trace's, and drop the same duplicates."""
        rows = rows + rows[::3]  # replayed frames
        bounds = [float("-inf")] + sorted(set(cuts)) + [float("inf")]
        stitched, dropped = {}, 0
        for lower, upper in zip(bounds, bounds[1:]):
            window = [row for row in rows if lower <= row[0] < upper]
            sequences, duplicates = split_sequences(window, True, True)
            dropped += duplicates
            for key, sequence in sequences.items():
                stitched.setdefault(key, []).extend(sequence)
        expected, expected_dropped = _reference_split(rows, True, True)
        assert _typed(dict(sorted(stitched.items()))) == _typed(expected)
        assert dropped == expected_dropped
        for key, sequence in expected.items():
            # The issue's oracle: a set of the channel's rows, sorted.
            assert sequence == sorted(
                set(sequence), key=lambda r: (r[0], repr(r[1]))
            )

    def test_strictly_increasing_sequences_are_not_copied_or_keyed(
        self, monkeypatch
    ):
        from repro.core import sequence as stage

        monkeypatch.setattr(
            stage, "value_order_key",
            lambda value: pytest.fail("no timestamp is tied"),
        )
        rows = _sequence([0.1] * 5, [3, 1, "x", TRUNCATED, 2.5])
        sequences, dropped = split_sequences(rows, True, True)
        assert sequences == {("s", "FC"): rows} and dropped == 0
        # Out of order but untied: sorted by t, still no key computed.
        shuffled = [rows[3], rows[0], rows[4], rows[2], rows[1]]
        assert split_sequences(shuffled, True, True)[0] == {("s", "FC"): rows}

    def test_replayed_frame_is_dropped_and_counted(self):
        rows = _sequence([0.1, 0.1, 0.1], [1, 2, 3])
        sequences, dropped = split_sequences(
            rows + [rows[1]], by_channel=True, drop_exact_duplicates=True
        )
        assert sequences == {("s", "FC"): rows}
        assert dropped == 1

    def test_duplicates_stay_when_the_knob_is_off(self):
        rows = _sequence([0.1, 0.1], [1, 2])
        sequences, dropped = split_sequences(
            rows + [rows[0]], by_channel=True, drop_exact_duplicates=False
        )
        assert sequences[("s", "FC")] == [rows[0], rows[0], rows[1]]
        assert dropped == 0

    def test_without_channels_one_sequence_holds_every_channel(self):
        rows = [(0.2, 1, "s", "FC"), (0.1, 1, "s", "BC"), (0.3, 2, "z", "FC")]
        sequences, _dropped = split_sequences(
            rows, by_channel=False, drop_exact_duplicates=True
        )
        assert sequences == {
            ("s", None): [rows[1], rows[0]], ("z", None): [rows[2]],
        }


def _channel_sequences(per_channel):
    rows = [
        (t, v, "s", b_id)
        for b_id, pairs in per_channel.items() for t, v in pairs
    ]
    sequences, _dropped = stages.split_sequences(
        _columns(rows), by_channel=True, drop_exact_duplicates=True
    )
    return {b_id: seq for (_s_id, b_id), seq in sequences.items()}


class TestEqualityGroups:
    def test_identical_channels_form_one_group(self):
        values = [(0.1 * i, i % 3) for i in range(9)]
        shifted = [(t + 0.002, v) for t, v in values]
        groups = equality_groups(
            "s", _channel_sequences({"FC": values, "BC": shifted})
        )
        assert groups == [ChannelGroup("s", "BC", ("FC",))]

    def test_longest_channel_represents_and_leads(self):
        groups = equality_groups("s", _channel_sequences({
            "AA": [(0.1, 1)],
            "ZZ": [(0.1, 1), (0.2, 2), (0.3, 3)],
            "MM": [(0.1, 5), (0.2, 6)],
        }))
        assert [g.representative for g in groups] == ["ZZ", "MM", "AA"]
        assert all(g.corresponding == () for g in groups)

    def test_no_channels_no_groups(self):
        assert equality_groups("s", {}) == []


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
