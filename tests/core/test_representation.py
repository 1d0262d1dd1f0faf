"""Merging (line 29) and the state representation (Sec. 4.3, Table 4)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    KIND_BINARY,
    KIND_NOMINAL,
    KIND_OUTLIER,
    KIND_SYMBOL,
    R_COLUMNS,
    build_state_representation,
    format_cell,
    merge_results,
)
from repro.core.representation import RepresentationError
from repro.engine import EngineContext


@pytest.fixture
def branch_tables(ctx):
    lights = ctx.table_from_rows(
        list(R_COLUMNS),
        [
            (2.0, "headlight", "BC", KIND_NOMINAL, "off", None),
            (20.1, "headlight", "BC", KIND_NOMINAL, "parklight on", None),
            (23.5, "headlight", "BC", KIND_NOMINAL, "headlight on", None),
        ],
    )
    speed = ctx.table_from_rows(
        list(R_COLUMNS),
        [
            (2.0, "speed", "DC", KIND_SYMBOL, "high", "increasing"),
            (14.0, "speed", "DC", KIND_SYMBOL, "high", "steady"),
            (22.0, "speed", "DC", KIND_OUTLIER, 800, None),
            (23.0, "speed", "DC", KIND_SYMBOL, "high", "steady"),
        ],
    )
    return [lights, speed]


class TestFormatCell:
    def test_symbol_with_trend(self):
        assert format_cell(KIND_SYMBOL, "high", "steady") == "(high,steady)"

    def test_outlier_matches_table4(self):
        assert format_cell(KIND_OUTLIER, 800, None) == "outlier v = 800"

    def test_nominal_plain(self):
        assert format_cell(KIND_NOMINAL, "off", None) == "off"

    def test_binary_plain(self):
        assert format_cell(KIND_BINARY, "ON", None) == "ON"


class TestMergeResults:
    def test_union_of_branches(self, ctx, branch_tables):
        merged = merge_results(ctx, branch_tables)
        assert merged.count() == 7
        assert merged.columns == list(R_COLUMNS)

    def test_sorted_by_time(self, ctx, branch_tables):
        merged = merge_results(ctx, branch_tables)
        times = [r[0] for r in merged.collect()]
        assert times == sorted(times)

    def test_extension_tables_reshaped(self, ctx, branch_tables):
        w = ctx.table_from_rows(
            ["t", "v", "w_id", "s_id", "b_id"],
            [(2.5, 0.5, "speedGap", "speed", "DC")],
        )
        merged = merge_results(ctx, branch_tables, [w])
        row = [r for r in merged.collect() if r[1] == "speedGap"]
        assert len(row) == 1
        assert row[0][3] == "extension"
        assert row[0][4] == 0.5

    def test_wrong_layout_rejected(self, ctx):
        bad = ctx.table_from_rows(["a", "b"], [(1, 2)])
        with pytest.raises(RepresentationError):
            merge_results(ctx, [bad])

    def test_empty_inputs_give_empty_table(self, ctx):
        merged = merge_results(ctx, [])
        assert merged.count() == 0
        assert merged.columns == list(R_COLUMNS)


class TestStateRepresentation:
    def test_one_row_per_timestamp(self, ctx, branch_tables):
        merged = merge_results(ctx, branch_tables)
        rep = build_state_representation(merged)
        # Timestamps: 2.0 (both), 14.0, 20.1, 22.0, 23.0, 23.5.
        assert len(rep) == 6

    def test_forward_fill_carries_last_value(self, ctx, branch_tables):
        merged = merge_results(ctx, branch_tables)
        rep = build_state_representation(merged, ["headlight", "speed"])
        state = rep.state_at(21.0)
        assert state["headlight"] == "parklight on"
        assert state["speed"] == "(high,steady)"

    def test_outlier_row_rendered(self, ctx, branch_tables):
        merged = merge_results(ctx, branch_tables)
        rep = build_state_representation(merged, ["headlight", "speed"])
        state = rep.state_at(22.0)
        assert state["speed"] == "outlier v = 800"
        # Table 4: the other columns keep their last values.
        assert state["headlight"] == "parklight on"

    def test_column_order_respected(self, ctx, branch_tables):
        merged = merge_results(ctx, branch_tables)
        rep = build_state_representation(merged, ["speed", "headlight"])
        assert rep.columns == ("speed", "headlight")

    def test_leading_cells_none_before_first_occurrence(self, ctx, branch_tables):
        merged = merge_results(ctx, branch_tables)
        rep = build_state_representation(merged, ["headlight", "speed"])
        # Insert nothing before 2.0; at 2.0 both signals appear.
        first = rep.rows[0]
        assert first[0] == 2.0

    def test_signal_column(self, ctx, branch_tables):
        merged = merge_results(ctx, branch_tables)
        rep = build_state_representation(merged, ["headlight", "speed"])
        column = rep.signal_column("headlight")
        assert column[0] == (2.0, "off")

    def test_state_before_data_raises(self, ctx, branch_tables):
        merged = merge_results(ctx, branch_tables)
        rep = build_state_representation(merged)
        with pytest.raises(RepresentationError):
            rep.state_at(0.1)

    def test_iter_states_dicts(self, ctx, branch_tables):
        merged = merge_results(ctx, branch_tables)
        rep = build_state_representation(merged, ["headlight", "speed"])
        states = list(rep.iter_states())
        assert states[0]["t"] == 2.0
        assert set(states[0]) == {"t", "headlight", "speed"}

    def test_to_markdown_contains_header_and_outlier(self, ctx, branch_tables):
        merged = merge_results(ctx, branch_tables)
        rep = build_state_representation(merged, ["headlight", "speed"])
        text = rep.to_markdown()
        assert "| t | headlight | speed |" in text
        assert "outlier v = 800" in text

    def test_transitions(self, ctx, branch_tables):
        merged = merge_results(ctx, branch_tables)
        rep = build_state_representation(merged, ["headlight", "speed"])
        transitions = rep.transitions("headlight")
        assert ("off", "parklight on") in transitions

    def test_unknown_signals_ignored(self, ctx, branch_tables):
        merged = merge_results(ctx, branch_tables)
        rep = build_state_representation(merged, ["headlight"])
        assert rep.columns == ("headlight",)
        assert all(len(row) == 2 for row in rep.rows)

    def test_empty_representation(self, ctx):
        merged = merge_results(ctx, [])
        rep = build_state_representation(merged)
        assert len(rep) == 0


def _r_out(ctx, cells, num_partitions=None):
    """An ``R_out`` table of nominal ``(t, s_id, value)`` cells."""
    return ctx.table_from_rows(
        list(R_COLUMNS),
        [(t, s_id, "FC", KIND_NOMINAL, value, None) for t, s_id, value in cells],
        num_partitions=num_partitions,
    )


class TestForwardFill:
    """An empty cell of the state table takes its column's last value."""

    def test_fills_empty_cells_from_previous(self, ctx):
        r_out = _r_out(ctx, [(1.0, "a", "x"), (2.0, "b", "y"), (3.0, "c", "z")])
        rep = build_state_representation(r_out, ["a", "b", "c"])
        assert rep.rows == [
            (1.0, "x", None, None),
            (2.0, "x", "y", None),
            (3.0, "x", "y", "z"),
        ]

    def test_leading_cells_stay_none(self, ctx):
        r_out = _r_out(ctx, [(1.0, "b", "v"), (2.0, "a", "w")])
        rep = build_state_representation(r_out, ["a", "b"])
        assert rep.rows[0] == (1.0, None, "v")

    def test_fill_follows_time_not_collect_order(self, ctx):
        r_out = _r_out(
            ctx, [(3.0, "b", "q"), (1.0, "a", "first"), (2.0, "b", "p")]
        )
        rep = build_state_representation(r_out, ["a", "b"])
        assert [row[1] for row in rep.rows] == ["first"] * 3

    def test_later_value_replaces_earlier(self, ctx):
        r_out = _r_out(
            ctx,
            [(1.0, "a", "x"), (2.0, "b", "-"), (3.0, "a", "y"),
             (4.0, "b", "-")],
            num_partitions=2,
        )
        rep = build_state_representation(r_out, ["a", "b"])
        assert [row[1] for row in rep.rows] == ["x", "x", "y", "y"]

    def test_columns_fill_independently(self, ctx):
        r_out = _r_out(
            ctx, [(1.0, "a", "p"), (2.0, "b", "q"), (3.0, "b", "r")]
        )
        rep = build_state_representation(r_out, ["a", "b"])
        assert rep.rows[-1] == (3.0, "p", "r")

    def test_falsy_values_are_not_missing(self, ctx):
        r_out = _r_out(
            ctx, [(1.0, "a", 0), (2.0, "b", "-"), (3.0, "a", False),
                  (4.0, "b", "-")]
        )
        rep = build_state_representation(r_out, ["a", "b"])
        assert [row[1] for row in rep.rows] == ["0", "0", "False", "False"]

    def test_no_rows_give_no_states(self, ctx):
        rep = build_state_representation(_r_out(ctx, []), ["a"])
        assert (rep.columns, rep.rows) == (("a",), [])


@given(
    cells=st.dictionaries(
        st.tuples(st.integers(0, 20), st.sampled_from("abc")),
        st.integers(0, 5),
        max_size=40,
    ),
    parts=st.integers(min_value=1, max_value=5),
)
@settings(max_examples=60, deadline=None)
def test_forward_fill_matches_reference(cells, parts):
    ctx = EngineContext.serial()
    r_out = _r_out(
        ctx,
        [(float(t), s_id, v) for (t, s_id), v in cells.items()],
        num_partitions=parts,
    )
    rep = build_state_representation(r_out, ["a", "b", "c"])
    times = sorted({t for t, _s_id in cells})
    assert [row[0] for row in rep.rows] == [float(t) for t in times]
    for row in rep.rows:
        for s_id, cell in zip("abc", row[1:]):
            seen = [
                (t, v) for (t, s), v in cells.items()
                if s == s_id and t <= row[0]
            ]
            assert cell == (str(max(seen)[1]) if seen else None)
