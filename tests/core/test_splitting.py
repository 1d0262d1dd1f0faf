"""Signal splitting and the gateway equality check e (lines 7-9)."""

import pytest

from repro.core import dedup_savings, equality_split, split_signal_types


@pytest.fixture
def k_s(ctx):
    """Signal instances: wpos duplicated on FC and BC (gateway), heat on
    K-LIN only, speed on DC with a diverging copy on FR."""
    rows = []
    for i in range(10):
        t = 0.1 * i
        rows.append((t, float(i), "wpos", "FC"))
        rows.append((t + 0.002, float(i), "wpos", "BC"))  # identical copy
        rows.append((t, "low", "heat", "K-LIN"))
        rows.append((t, float(i), "speed", "DC"))
        rows.append((t, float(i) + 99, "speed", "FR"))  # different values
    return ctx.table_from_rows(["t", "v", "s_id", "b_id"], rows)


class TestSplitSignalTypes:
    def test_explicit_ids(self, k_s):
        per_signal = split_signal_types(k_s, ["wpos", "heat"])
        assert set(per_signal) == {"wpos", "heat"}
        assert per_signal["heat"].count() == 10

    def test_discovered_ids(self, k_s):
        per_signal = split_signal_types(k_s)
        assert set(per_signal) == {"wpos", "heat", "speed"}

    def test_split_tables_are_pure(self, k_s):
        per_signal = split_signal_types(k_s, ["wpos"])
        assert all(r[2] == "wpos" for r in per_signal["wpos"].collect())

    def test_single_shuffle_pass(self, ctx, k_s):
        # The tentpole property: splitting S signal types costs exactly
        # one routed shuffle stage, not S filter scans.
        metrics = ctx.executor.metrics
        shuffles_before = metrics.shuffles
        per_signal = split_signal_types(k_s)
        assert len(per_signal) == 3
        assert metrics.splits == 1
        assert metrics.shuffles == shuffles_before + 1

    def test_absent_requested_id_yields_empty_table(self, k_s):
        per_signal = split_signal_types(k_s, ["wpos", "ghost"])
        assert per_signal["ghost"].count() == 0


class TestEqualitySplit:
    def test_identical_copies_deduplicated(self, k_s):
        per_signal = split_signal_types(k_s, ["wpos"])
        result = equality_split(per_signal["wpos"], "wpos")
        assert len(result.groups) == 1
        group = result.groups[0]
        assert set(group.all_channels()) == {"FC", "BC"}
        # Only one channel's rows survive.
        channels = {r[3] for r in result.k_sep.collect()}
        assert len(channels) == 1
        assert result.k_sep.count() == 10

    def test_diverging_copies_kept_separately(self, k_s):
        per_signal = split_signal_types(k_s, ["speed"])
        result = equality_split(per_signal["speed"], "speed")
        assert len(result.groups) == 2
        assert not result.groups[0].corresponding
        tables = result.tables()
        assert len(tables) == 2
        total = sum(t.count() for _g, t in tables)
        assert total == 20

    def test_single_channel_passthrough(self, k_s):
        per_signal = split_signal_types(k_s, ["heat"])
        result = equality_split(per_signal["heat"], "heat")
        assert len(result.groups) == 1
        assert result.groups[0].corresponding == ()
        assert result.k_sep.count() == 10

    def test_empty_table(self, ctx):
        empty = ctx.empty_table(["t", "v", "s_id", "b_id"])
        result = equality_split(empty, "ghost")
        assert result.groups == []
        assert result.k_sep.count() == 0

    def test_representative_choice_deterministic(self, k_s):
        per_signal = split_signal_types(k_s, ["wpos"])
        a = equality_split(per_signal["wpos"], "wpos")
        b = equality_split(per_signal["wpos"], "wpos")
        assert a.groups == b.groups

    def test_tied_timestamps_in_opposite_order_still_correspond(self, ctx):
        """Regression: ``e`` compared values in (t, arrival) order while
        the sequence it stands for is processed in canonical order, so a
        same-timestamp pair two recorders wrote down in opposite order
        made two channels carrying the same values look different."""
        front = [(0.1, 1.0), (0.2, 7.0), (0.2, 3.0), (0.3, 2.0)]
        back = [(0.1, 1.0), (0.2, 3.0), (0.2, 7.0), (0.3, 2.0)]
        rows = [(t, v, "s", "FC") for t, v in front]
        rows += [(t, v, "s", "BC") for t, v in back]
        table = ctx.table_from_rows(["t", "v", "s_id", "b_id"], rows)
        result = equality_split(table, "s")
        assert len(result.groups) == 1
        assert set(result.groups[0].all_channels()) == {"FC", "BC"}
        # The representative's table is in the order it is processed in.
        assert [r[1] for r in result.k_sep.collect()] == [1.0, 3.0, 7.0, 2.0]

    def test_representative_prefers_longest_sequence(self, ctx):
        rows = [(0.1 * i, float(i), "s", "SHORT") for i in range(3)]
        rows += [(0.1 * i, float(i), "s", "LONG") for i in range(8)]
        table = ctx.table_from_rows(["t", "v", "s_id", "b_id"], rows)
        result = equality_split(table, "s")
        assert result.groups[0].representative == "LONG"


class TestDedupSavings:
    def test_two_identical_channels_half_saved(self, k_s):
        per_signal = split_signal_types(k_s, ["wpos"])
        result = equality_split(per_signal["wpos"], "wpos")
        assert dedup_savings(result) == pytest.approx(0.5)

    def test_no_duplicates_no_savings(self, k_s):
        per_signal = split_signal_types(k_s, ["speed"])
        result = equality_split(per_signal["speed"], "speed")
        assert dedup_savings(result) == 0.0

    def test_empty(self, ctx):
        empty = ctx.empty_table(["t", "v", "s_id", "b_id"])
        assert dedup_savings(equality_split(empty, "x")) == 0.0

    def test_gateway_trace_end_to_end(self, ctx, wiper_simulation):
        """The simulated gateway duplication is found and collapsed."""
        from repro.core import interpret, preselect

        db = wiper_simulation.database
        catalog = db.translation_catalog(["wpos"])
        k_b = wiper_simulation.record_table(ctx, 5.0)
        k_s = interpret(preselect(k_b, catalog), catalog)
        result = equality_split(k_s, "wpos")
        assert len(result.groups) == 1
        assert set(result.groups[0].all_channels()) == {"FC", "BC"}
