"""Per-signal profiling."""

import pytest

from repro.core import interpret, preselect
from repro.core.profiling import profile_report, profile_signal, profile_trace
from repro.core.reduction import UnchangedWithinCycle
from repro.obs import median, percentile


def rows_for(times, values, s_id="s", b_id="FC"):
    return [(t, v, s_id, b_id) for t, v in zip(times, values)]


def times_with_gaps(gaps):
    """21 timestamps whose consecutive gaps are exactly *gaps*."""
    times = [0.0]
    for gap in gaps:
        times.append(times[-1] + gap)
    return times


class TestProfileSignal:
    def test_basic_statistics(self):
        rows = rows_for([0.0, 0.1, 0.2, 0.3], [1.0, 1.0, 2.0, 3.0])
        p = profile_signal(rows, "s")
        assert p.count == 4
        assert p.first_seen == 0.0
        assert p.last_seen == pytest.approx(0.3)
        assert p.distinct_values == 3
        assert p.numeric
        assert p.value_min == 1.0
        assert p.value_max == 3.0

    def test_rate_and_duration(self):
        rows = rows_for([0.0, 1.0, 2.0], [1, 2, 3])
        p = profile_signal(rows, "s")
        assert p.duration == 2.0
        assert p.rate == pytest.approx(1.0)

    def test_median_gap(self):
        rows = rows_for([0.0, 0.1, 0.2, 1.2], [1, 2, 3, 4])
        p = profile_signal(rows, "s")
        assert p.median_gap == pytest.approx(0.1)
        assert p.suggested_cycle_time() == pytest.approx(0.1)

    def test_change_ratio(self):
        rows = rows_for([0.0, 0.1, 0.2, 0.3], [5, 5, 5, 6])
        p = profile_signal(rows, "s")
        assert p.change_ratio == pytest.approx(1 / 3)

    def test_non_numeric_profile(self):
        rows = rows_for([0.0, 0.5], ["ON", "OFF"])
        p = profile_signal(rows, "s")
        assert not p.numeric
        assert p.value_min is None

    def test_rows_sorted_internally(self):
        rows = rows_for([0.2, 0.0, 0.1], [3, 1, 2])
        p = profile_signal(rows, "s")
        assert p.first_seen == 0.0

    def test_classification_attached(self):
        rows = rows_for(
            [0.01 * i for i in range(200)], [float(i) for i in range(200)]
        )
        p = profile_signal(rows, "s")
        assert p.branch == "alpha"

    def test_single_instance(self):
        p = profile_signal(rows_for([1.0], [5]), "s")
        assert p.rate == 0.0
        assert p.change_ratio == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            profile_signal([], "s")

    def test_channels_collected(self):
        rows = rows_for([0.0], [1]) + rows_for([0.1], [1], b_id="BC")
        p = profile_signal(rows, "s")
        assert p.channels == ("BC", "FC")

    def test_two_row_sequence(self):
        p = profile_signal(rows_for([0.0, 0.5], [1, 2]), "s")
        assert p.count == 2
        # One gap: it is simultaneously the median and every percentile.
        assert p.median_gap == pytest.approx(0.5)
        assert p.p95_gap == pytest.approx(0.5)
        assert p.change_ratio == pytest.approx(1.0)

    def test_constant_value_sequence(self):
        p = profile_signal(
            rows_for([0.1 * i for i in range(10)], [7] * 10), "s"
        )
        assert p.distinct_values == 1
        assert p.change_ratio == 0.0
        assert p.value_min == p.value_max == 7
        assert p.median_gap == pytest.approx(0.1)
        assert p.p95_gap == pytest.approx(0.1)


class TestPercentileRegressions:
    """The old hand-rolled indexing returned p100 as p95 at n = 20."""

    GAPS = [float(g) for g in range(1, 21)]  # 20 distinct gaps: 1..20

    def profile(self):
        times = times_with_gaps(self.GAPS)
        return profile_signal(rows_for(times, range(len(times))), "s")

    def test_p95_gap_is_nearest_rank_not_maximum(self):
        p = self.profile()
        # Nearest rank: ceil(0.95 * 20) - 1 == index 18 -> gap 19. The
        # old int(len * 0.95) indexing picked index 19 == max(gaps),
        # i.e. p100 masquerading as p95.
        assert p.p95_gap == 19.0
        assert p.p95_gap != max(self.GAPS)
        assert p.p95_gap == percentile(self.GAPS, 95)

    def test_median_gap_even_length_takes_lower_middle(self):
        p = self.profile()
        # 20 gaps: nearest-rank median is the 10th value (10.0); the
        # old // 2 indexing took the upper middle (11.0).
        assert p.median_gap == 10.0
        assert p.median_gap == median(self.GAPS)

    def test_profiling_and_classification_medians_agree(self):
        # Both modules take the nearest-rank median of the same gaps, so
        # an even-length gap sequence yields one answer everywhere.
        from repro.core.classification import _change_rate, ClassifierConfig

        gaps = [0.1, 0.1, 5.0, 5.0]  # even length; lower middle = 0.1
        times = times_with_gaps(gaps)
        p = profile_signal(rows_for(times, range(len(times))), "s")
        assert p.median_gap == pytest.approx(0.1)
        # With median 0.1 the active-segment limit (factor 10 -> 1.0 s)
        # excludes the 5.0 s gaps: 3 active points over 0.2 s -> high
        # rate. The old upper-middle median (5.0 -> limit 50 s) kept
        # every gap active: 5 points over 10.2 s -> low rate.
        assert _change_rate(times, ClassifierConfig()) == "H"

        # One signal on two channels at the same instants: every other
        # gap is zero. Both modules take the median over positive gaps,
        # so the suggested cycle is a cycle the parameter parser accepts.
        instants = [0.1 * i for i in range(10)]
        rows = rows_for(instants, range(10), b_id="CAN1") + rows_for(
            instants, range(10), b_id="CAN2"
        )
        p = profile_signal(rows, "s")
        ordered = sorted(instants * 2)
        assert p.median_gap == median(
            [b - a for a, b in zip(ordered, ordered[1:]) if b > a]
        )
        assert p.suggested_cycle_time() == pytest.approx(0.1)
        UnchangedWithinCycle(cycle_time=p.suggested_cycle_time(), tolerance=1.8)
        # Every instance at one instant: no positive gap, no cycle.
        p = profile_signal(rows_for([1.0] * 3, [1, 2, 3]), "s")
        assert p.median_gap == p.p95_gap == p.suggested_cycle_time() == 0.0


class TestProfileTrace:
    def test_profiles_every_signal(self, ctx, wiper_simulation):
        db = wiper_simulation.database
        catalog = db.translation_catalog(["wpos", "heat", "belt"])
        k_b = wiper_simulation.record_table(ctx, 20.0)
        k_s = interpret(preselect(k_b, catalog), catalog)
        profiles = profile_trace(k_s)
        assert set(profiles) == {"wpos", "heat", "belt"}
        assert profiles["wpos"].rate > profiles["heat"].rate

    def test_suggested_cycle_matches_schedule(self, ctx, wiper_simulation):
        db = wiper_simulation.database
        catalog = db.translation_catalog(["heat"])
        k_b = wiper_simulation.record_table(ctx, 20.0)
        k_s = interpret(preselect(k_b, catalog), catalog)
        profiles = profile_trace(k_s)
        # Heater is sent every 0.5 s.
        assert profiles["heat"].suggested_cycle_time() == pytest.approx(
            0.5, abs=0.05
        )


class TestProfileReport:
    def make_profiles(self):
        rows_a = rows_for([0.0, 0.1, 0.2], [1, 2, 3], s_id="a")
        rows_b = rows_for([0.0, 1.0], ["x", "y"], s_id="b")
        return {
            "a": profile_signal(rows_a, "a"),
            "b": profile_signal(rows_b, "b"),
        }

    def test_report_contains_all_signals(self):
        text = profile_report(self.make_profiles())
        assert "a" in text and "b" in text
        assert "rate/s" in text

    def test_sorting_modes(self):
        profiles = self.make_profiles()
        by_count = profile_report(profiles, sort_by="count").splitlines()
        assert by_count[2].startswith("a")  # 3 instances > 2
        by_name = profile_report(profiles, sort_by="signal").splitlines()
        assert by_name[2].startswith("a")

    def test_unknown_sort_rejected(self):
        with pytest.raises(ValueError):
            profile_report(self.make_profiles(), sort_by="magic")
