"""Extension rules (line 12, Table 2)."""

import pytest

from repro.core import (
    CycleViolationExtension,
    DerivedValueExtension,
    ExtensionSet,
    GapExtension,
    RollingAggregateExtension,
    apply_extensions,
)
from repro.core.extension import ExtensionError


@pytest.fixture
def wpos_table(ctx):
    """The K_red behind Table 2: wpos at 2.0, 2.5, 2.9, 3.35 s."""
    rows = [
        (2.0, 10.0, "wpos", "FC"),
        (2.5, 20.0, "wpos", "FC"),
        (2.9, 30.0, "wpos", "FC"),
        (3.35, 40.0, "wpos", "FC"),
    ]
    return ctx.table_from_rows(["t", "v", "s_id", "b_id"], rows)


class TestGapExtension:
    def test_table2_gaps(self, wpos_table):
        """Table 2: wposGap = 0.5, 0.4, 0.45."""
        w = apply_extensions(wpos_table, [GapExtension("wpos")])
        assert w.columns == ["t", "v", "w_id", "s_id", "b_id"]
        rows = w.collect()
        assert [r[1] for r in rows] == [0.5, 0.4, 0.45]
        assert all(r[2] == "wposGap" for r in rows)
        assert all(r[3] == "wpos" for r in rows)

    def test_first_element_has_no_gap(self, wpos_table):
        w = apply_extensions(wpos_table, [GapExtension("wpos")])
        assert w.count() == wpos_table.count() - 1

    def test_w_id_suffix(self):
        assert GapExtension("speed", suffix="Delta").w_id == "speedDelta"


class TestCycleViolationExtension:
    def test_flags_only_excessive_gaps(self, ctx):
        rows = [
            (0.0, 1, "s", "FC"),
            (0.1, 1, "s", "FC"),
            (0.5, 1, "s", "FC"),  # 0.4 s gap on a 0.1 s cycle
        ]
        table = ctx.table_from_rows(["t", "v", "s_id", "b_id"], rows)
        rule = CycleViolationExtension("s", expected_cycle=0.1, tolerance=1.5)
        w = apply_extensions(table, [rule])
        rows = w.collect()
        assert len(rows) == 1
        assert rows[0][0] == 0.5
        assert rows[0][1] == pytest.approx(4.0)  # gap / cycle

    def test_validation(self):
        with pytest.raises(ExtensionError):
            CycleViolationExtension("s", expected_cycle=0)
        with pytest.raises(ExtensionError):
            CycleViolationExtension("s", expected_cycle=1.0, tolerance=0.5)


class TestDerivedValueExtension:
    def test_applies_function(self, wpos_table):
        rule = DerivedValueExtension("wpos", "wposTwice", _double)
        w = apply_extensions(wpos_table, [rule])
        assert [r[1] for r in w.collect()] == [20.0, 40.0, 60.0, 80.0]

    def test_none_skips_element(self, wpos_table):
        rule = DerivedValueExtension("wpos", "wposBig", _only_big)
        w = apply_extensions(wpos_table, [rule])
        assert w.count() == 2


class TestRollingAggregateExtension:
    def test_rolling_mean(self, wpos_table):
        rule = RollingAggregateExtension("wpos", window=1.0, statistic="mean")
        w = apply_extensions(wpos_table, [rule])
        values = [r[1] for r in w.collect()]
        assert values[0] == 10.0
        assert values[1] == 15.0  # (10+20)/2 within 1 s

    def test_rolling_count(self, wpos_table):
        rule = RollingAggregateExtension("wpos", window=1.0, statistic="count")
        w = apply_extensions(wpos_table, [rule])
        assert [r[1] for r in w.collect()] == [1, 2, 3, 3]

    def test_rolling_min_max(self, wpos_table):
        w_min = apply_extensions(
            wpos_table,
            [RollingAggregateExtension("wpos", window=10.0, statistic="min")],
        )
        w_max = apply_extensions(
            wpos_table,
            [RollingAggregateExtension("wpos", window=10.0, statistic="max")],
        )
        assert [r[1] for r in w_min.collect()] == [10.0] * 4
        assert [r[1] for r in w_max.collect()] == [10.0, 20.0, 30.0, 40.0]

    def test_booleans_are_not_averaged(self, ctx):
        """Table 3's numeric test: a boolean is no number to aggregate."""
        rows = [(float(i), v, "s", "FC") for i, v in enumerate(
            [True, False, True, 2.0]
        )]
        table = ctx.table_from_rows(["t", "v", "s_id", "b_id"], rows)
        rule = RollingAggregateExtension("s", window=10.0, statistic="mean")
        assert [r[1] for r in apply_extensions(table, [rule]).collect()] == [
            2.0
        ]

    def test_validation(self):
        with pytest.raises(ExtensionError):
            RollingAggregateExtension("s", window=0)
        with pytest.raises(ExtensionError):
            RollingAggregateExtension("s", window=1.0, statistic="median")


class TestExtensionSet:
    def test_for_signal(self):
        rules = ExtensionSet((GapExtension("a"), GapExtension("b")))
        assert len(rules.for_signal("a")) == 1
        assert rules.for_signal("ghost") == []
        assert len(rules) == 2

    def test_apply_multiple_rules(self, wpos_table):
        w = apply_extensions(
            wpos_table,
            [GapExtension("wpos"), DerivedValueExtension("wpos", "x2", _double)],
        )
        w_ids = {r[2] for r in w.collect()}
        assert w_ids == {"wposGap", "x2"}

    def test_no_rules_empty_table(self, wpos_table):
        w = apply_extensions(wpos_table, [])
        assert w.count() == 0
        assert w.columns == ["t", "v", "w_id", "s_id", "b_id"]


def _double(t, v):
    return 2 * v


def _only_big(t, v):
    return v if v >= 30 else None
