"""Constraint reduction (lines 10-11, Eq. 1)."""

import numpy as np
import pytest

from repro.core import (
    Constraint,
    ConstraintSet,
    MinimumGap,
    OutsideQuantileRange,
    Predicate,
    UnchangedValue,
    UnchangedWithinCycle,
    ValueInSet,
    reduce_signal,
    reduction_ratio,
)
from repro.core.reduction import ReductionError
from repro.core.sequence import objects


def _flags(marker, times, values, prev):
    """*marker*'s flags over a sequence given as lists, as a list."""
    return np.asarray(marker.flags(
        np.array(times, dtype=float), objects(values), prev
    )).tolist()


@pytest.fixture
def cyclic_table(ctx):
    """A 0.1 s cyclic signal repeating its value, with one late message
    (cycle violation at t=2.0) that also repeats the value."""
    rows = []
    t = 0.0
    value = 5.0
    while t < 1.0:
        rows.append((round(t, 3), value, "s", "FC"))
        t += 0.1
    rows.append((2.0, value, "s", "FC"))  # late repeat = violation
    rows.append((2.1, 7.0, "s", "FC"))  # value change
    return ctx.table_from_rows(["t", "v", "s_id", "b_id"], rows)


class TestMarkers:
    def test_unchanged_value_flags_repeats(self):
        flags = _flags(UnchangedValue(), [1, 2, 3, 4], [5, 5, 6, 6], None)
        assert flags == [False, True, False, True]

    def test_unchanged_value_uses_carry(self):
        flags = _flags(UnchangedValue(), [2], [5], (1, 5))
        assert flags == [True]

    def test_unchanged_within_cycle_preserves_violations(self):
        marker = UnchangedWithinCycle(cycle_time=0.1, tolerance=1.5)
        times = [0.0, 0.1, 0.2, 1.0]
        values = [5, 5, 5, 5]
        flags = _flags(marker, times, values, None)
        # Repeats within cycle tolerance dropped; the late one kept.
        assert flags == [False, True, True, False]

    def test_unchanged_within_cycle_validation(self):
        with pytest.raises(ReductionError):
            UnchangedWithinCycle(0.0)

    def test_minimum_gap_decimates(self):
        marker = MinimumGap(min_gap=0.25)
        flags = _flags(marker, [0.0, 0.1, 0.2, 0.3, 0.6], [1] * 5, None)
        assert flags == [False, True, True, False, False]

    def test_value_in_set(self):
        marker = ValueInSet(frozenset({"idle"}))
        flags = _flags(marker, [1, 2], ["idle", "go"], None)
        assert flags == [True, False]

    def test_predicate(self):
        marker = Predicate(_is_negative)
        assert _flags(marker, [1, 2], [-5, 5], None) == [True, False]

    def test_quantile_marker(self):
        marker = OutsideQuantileRange(0.05, 0.95)
        values = list(range(100)) + [10_000]
        flags = _flags(marker, list(range(101)), values, None)
        assert flags[-1] is True or flags[-1] == True  # noqa: E712
        assert sum(flags) < 15

    def test_quantile_marker_counts_numbers_only(self):
        """A boolean is no number (Table 3's test): it is neither in the
        band's statistics nor dropped for lying outside it."""
        marker = OutsideQuantileRange(0.1, 0.9)
        values = [True, 10.0, 11.0, 12.0, 13.0, "init", np.int64(50)]
        flags = _flags(marker, range(len(values)), values, None)
        assert flags == [False, True, False, False, True, False, False]

    def test_quantile_marker_validation(self):
        with pytest.raises(ReductionError):
            OutsideQuantileRange(0.9, 0.1)


class TestConstraintSet:
    def test_for_signal_filters_by_id_and_enable(self):
        c1 = Constraint("a", True, (UnchangedValue(),))
        c2 = Constraint("a", False, (MinimumGap(1.0),))
        c3 = Constraint("b", True, (UnchangedValue(),))
        cs = ConstraintSet((c1, c2, c3))
        assert cs.for_signal("a") == [c1]
        assert cs.for_signal("b") == [c3]
        assert cs.for_signal("ghost") == []

    def test_non_marker_function_rejected(self):
        with pytest.raises(ReductionError):
            Constraint("a", True, (lambda t, v: True,))

    def test_len_and_iter(self):
        cs = ConstraintSet((Constraint("a", True, ()),))
        assert len(cs) == 1
        assert [c.signal_id for c in cs] == ["a"]


class TestReduceSignal:
    def test_no_constraints_passthrough(self, cyclic_table):
        out = reduce_signal(cyclic_table, [])
        assert out.count() == cyclic_table.count()

    def test_unchanged_value_reduction(self, cyclic_table):
        constraints = [Constraint("s", True, (UnchangedValue(),))]
        out = reduce_signal(cyclic_table, constraints)
        # Only first occurrence and the value change at 2.1 survive.
        assert [r[0] for r in out.collect()] == [0.0, 2.1]

    def test_cycle_aware_reduction_keeps_violation(self, cyclic_table):
        constraints = [
            Constraint("s", True, (UnchangedWithinCycle(0.1, 1.5),))
        ]
        out = reduce_signal(cyclic_table, constraints)
        times = [r[0] for r in out.collect()]
        assert 2.0 in times  # the late message is preserved
        assert 2.1 in times
        assert 0.0 in times
        assert len(times) == 3

    def test_disjunction_of_markers(self, ctx):
        """Eq. 1: e is true if ANY f fires."""
        rows = [(0.0, 1, "s", "FC"), (0.1, 1, "s", "FC"), (0.2, "idle", "s", "FC")]
        table = ctx.table_from_rows(["t", "v", "s_id", "b_id"], rows)
        constraints = [
            Constraint(
                "s", True, (UnchangedValue(), ValueInSet(frozenset({"idle"})))
            )
        ]
        out = reduce_signal(table, constraints)
        assert out.collect() == [(0.0, 1, "s", "FC")]

    def test_reduction_crosses_partitions(self, ctx):
        rows = [(float(i), 7, "s", "FC") for i in range(100)]
        table = ctx.table_from_rows(
            ["t", "v", "s_id", "b_id"], rows, num_partitions=8
        )
        out = reduce_signal(table, [Constraint("s", True, (UnchangedValue(),))])
        assert out.count() == 1

    def test_minimum_gap_is_partition_invariant(self, ctx):
        """Serial-state markers must not depend on partitioning.

        MinimumGap's kept/dropped phase propagates from the start of the
        sequence; with a one-row carry each partition restarted the
        phase, so the output used to change with ``num_partitions``.
        """
        rows = [(round(i * 0.1, 6), i, "s", "FC") for i in range(60)]
        constraints = [Constraint("s", True, (MinimumGap(0.25),))]
        expected = None
        for parts in (1, 3, 8):
            table = ctx.table_from_rows(
                ["t", "v", "s_id", "b_id"], rows, num_partitions=parts
            )
            got = reduce_signal(table, constraints).collect()
            if expected is None:
                expected = got
                assert 1 < len(got) < len(rows)
            assert got == expected

    def test_result_sorted_by_time(self, ctx):
        rows = [(2.0, 1, "s", "FC"), (1.0, 2, "s", "FC"), (3.0, 3, "s", "FC")]
        table = ctx.table_from_rows(["t", "v", "s_id", "b_id"], rows)
        out = reduce_signal(table, [])
        assert [r[0] for r in out.collect()] == [1.0, 2.0, 3.0]


class TestReductionRatio:
    def test_half(self):
        assert reduction_ratio(10, 5) == 0.5

    def test_empty(self):
        assert reduction_ratio(0, 0) == 0.0


def _is_negative(t, v):
    return v < 0
