"""Counters, gauges, histograms and the nearest-rank percentile helper."""

import pytest

from repro.obs import (
    MetricsRegistry,
    median,
    nearest_rank_index,
    percentile,
)


class TestNearestRankIndex:
    def test_n1_everything_is_the_single_element(self):
        for q in (0, 50, 95, 100):
            assert nearest_rank_index(1, q) == 0

    def test_n2_split(self):
        assert nearest_rank_index(2, 0) == 0
        assert nearest_rank_index(2, 50) == 0
        assert nearest_rank_index(2, 51) == 1
        assert nearest_rank_index(2, 95) == 1
        assert nearest_rank_index(2, 100) == 1

    def test_n20_p95_is_index_18_not_19(self):
        # The old hand-rolled code used int(0.95 * n) == 19, i.e. the
        # maximum (p100). Nearest rank is ceil(0.95 * 20) - 1 == 18.
        assert nearest_rank_index(20, 95) == 18
        assert nearest_rank_index(20, 100) == 19

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            nearest_rank_index(0, 50)
        with pytest.raises(ValueError):
            nearest_rank_index(5, 101)
        with pytest.raises(ValueError):
            nearest_rank_index(5, -1)


class TestPercentile:
    def test_p0_is_min_p100_is_max(self):
        values = [5, 1, 9, 3]
        assert percentile(values, 0) == 1
        assert percentile(values, 100) == 9

    def test_single_value(self):
        assert percentile([7.5], 95) == 7.5

    def test_two_values(self):
        assert percentile([2.0, 1.0], 50) == 1.0
        assert percentile([2.0, 1.0], 95) == 2.0

    def test_all_equal(self):
        for q in (0, 50, 95, 100):
            assert percentile([4, 4, 4, 4], q) == 4

    def test_unsorted_input_is_sorted_first(self):
        assert percentile([30, 10, 20], 50) == 20

    def test_median_even_length_takes_lower_middle(self):
        assert median([1, 2, 3, 4]) == 2

    def test_median_odd_length(self):
        assert median([3, 1, 2]) == 2


class TestCountersAndGauges:
    def test_counter_increments(self):
        registry = MetricsRegistry()
        registry.inc("a")
        registry.inc("a", 4)
        assert registry.counter("a").value == 5

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("a").inc(-1)

    def test_gauge_last_write_wins(self):
        registry = MetricsRegistry()
        registry.set_gauge("g", 3.0)
        registry.set_gauge("g", 1.5)
        assert registry.gauge("g").value == 1.5

    def test_gauge_set_max(self):
        gauge = MetricsRegistry().gauge("g")
        gauge.set_max(5)
        gauge.set_max(2)
        assert gauge.value == 5


class TestHistogram:
    def test_summary_statistics(self):
        registry = MetricsRegistry()
        for v in (1.0, 2.0, 3.0, 4.0):
            registry.observe("h", v)
        histogram = registry.histogram("h")
        assert histogram.count == 4
        assert histogram.mean == pytest.approx(2.5)
        assert histogram.min == 1.0
        assert histogram.max == 4.0
        assert histogram.percentile(50) == 2.0
        assert histogram.percentile(100) == 4.0

    def test_empty_histogram(self):
        histogram = MetricsRegistry().histogram("h")
        assert histogram.summary() == {"count": 0, "total": 0.0}
        with pytest.raises(ValueError):
            histogram.percentile(50)

    def test_p95_with_20_observations(self):
        histogram = MetricsRegistry().histogram("h")
        for v in range(1, 21):
            histogram.observe(v)
        assert histogram.percentile(95) == 19  # not the max (20)


class TestRegistry:
    def test_snapshot_shape(self):
        registry = MetricsRegistry()
        registry.inc("c", 2)
        registry.set_gauge("g", 0.5)
        registry.observe("h", 1.0)
        snapshot = registry.snapshot()
        assert snapshot["counters"] == {"c": 2}
        assert snapshot["gauges"] == {"g": 0.5}
        assert snapshot["histograms"]["h"]["count"] == 1

    def test_merge_into_with_prefix(self):
        source = MetricsRegistry()
        source.inc("c", 3)
        source.set_gauge("g", 1.0)
        source.observe("h", 2.0)
        target = MetricsRegistry()
        target.inc("x.c", 1)
        source.merge_into(target, prefix="x.")
        assert target.counter("x.c").value == 4
        assert target.gauge("x.g").value == 1.0
        assert target.histogram("x.h").count == 1

    def test_reset(self):
        registry = MetricsRegistry()
        registry.inc("c")
        registry.reset()
        assert registry.counters() == {}


class TestPerfCounterContainment:
    def test_no_perf_counter_outside_obs(self):
        # repro.obs owns all wall-clock reads; everything else must go
        # through Stopwatch/SpanRecorder so timings stay uniform.
        import pathlib

        import repro

        src_root = pathlib.Path(repro.__file__).parent
        offenders = [
            str(path.relative_to(src_root))
            for path in sorted(src_root.rglob("*.py"))
            if "obs" not in path.parts
            and "perf_counter" in path.read_text(encoding="utf-8")
        ]
        assert offenders == []


class TestRegistryMerge:
    """merge(other): the aggregation orientation of merge_into."""

    def test_counters_add(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.inc("jobs", 3)
        b.inc("jobs", 2)
        b.inc("only_b")
        assert a.merge(b) is a
        assert a.counter("jobs").value == 5
        assert a.counter("only_b").value == 1

    def test_gauges_last_write_wins(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.set_gauge("throughput", 1.0)
        b.set_gauge("throughput", 4.0)
        a.merge(b)
        assert a.gauge("throughput").value == 4.0

    def test_histograms_extend(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.observe("seconds", 1.0)
        b.observe("seconds", 3.0)
        b.observe("seconds", 5.0)
        a.merge(b)
        assert a.histogram("seconds").count == 3
        assert a.histogram("seconds").values() == (1.0, 3.0, 5.0)

    def test_prefix_applies_to_merged_names(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        b.inc("jobs")
        a.merge(b, prefix="fleet.")
        assert a.counter("fleet.jobs").value == 1
        assert "jobs" not in a.counters()

    def test_source_registry_unchanged(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.inc("jobs", 1)
        b.inc("jobs", 2)
        a.merge(b)
        assert b.counter("jobs").value == 2

    def test_merge_is_associative_for_counters(self):
        parts = []
        for amount in (1, 2, 3):
            r = MetricsRegistry()
            r.inc("jobs", amount)
            parts.append(r)
        left = MetricsRegistry().merge(parts[0]).merge(parts[1]).merge(parts[2])
        right = MetricsRegistry()
        pair = MetricsRegistry().merge(parts[1]).merge(parts[2])
        right.merge(parts[0]).merge(pair)
        assert left.counters() == right.counters()
