"""Criteria Z and the Table 3 branch assignment (Sec. 4.2)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    ALPHA,
    BETA,
    GAMMA,
    ClassifierConfig,
    classify,
    compute_criteria,
)
from repro.core import classification
from repro.core.classification import (
    BINARY,
    HIGH_RATE,
    LOW_RATE,
    NOMINAL,
    NUMERIC,
    NUMERIC_TYPE,
    ORDINAL,
    STRING_TYPE,
    Criteria,
    _orderable,
    all_numeric,
    is_numeric_type,
    numeric_mask,
)
from repro.core.rules import TRUNCATED
from repro.obs import median as _median
from repro.obs.metrics import nearest_rank_index


def times(n, dt=0.1):
    return [dt * i for i in range(n)]


class TestCriteria:
    def test_numeric_type(self):
        z = compute_criteria(times(10), list(range(10)))
        assert z.z_type == NUMERIC_TYPE

    def test_string_type(self):
        z = compute_criteria(times(4), ["a", "b", "a", "c"])
        assert z.z_type == STRING_TYPE

    def test_bool_counts_as_non_numeric(self):
        z = compute_criteria(times(4), [True, False, True, False])
        assert z.z_type == STRING_TYPE

    def test_z_num_counts_distinct(self):
        z = compute_criteria(times(6), [1, 1, 2, 2, 3, 3])
        assert z.z_num == 3

    def test_z_num_ignores_validity_values(self):
        z = compute_criteria(
            times(5), ["low", "high", "invalid", "low", "high"]
        )
        assert z.z_num == 2

    def test_high_rate_fast_signal(self):
        z = compute_criteria(times(100, dt=0.01), list(range(100)))
        assert z.z_rate == HIGH_RATE

    def test_low_rate_slow_signal(self):
        z = compute_criteria(times(10, dt=5.0), list(range(10)))
        assert z.z_rate == LOW_RATE

    def test_rate_uses_active_segments(self):
        """A fast burst followed by a long silence is still high-rate:
        Eq. 2 measures n/dt over active segments only."""
        burst = [0.01 * i for i in range(50)]
        sparse = burst + [100.0, 200.0, 300.0]
        z = compute_criteria(sparse, list(range(len(sparse))))
        assert z.z_rate == HIGH_RATE

    def test_single_element_low_rate(self):
        z = compute_criteria([0.0], [5])
        assert z.z_rate == LOW_RATE

    def test_valence_numeric_always_true(self):
        z = compute_criteria(times(3), [1, 2, 3])
        assert z.z_val is True

    def test_valence_ordinal_vocabulary(self):
        z = compute_criteria(times(3), ["low", "medium", "high"])
        assert z.z_val is True

    def test_valence_binary_vocabulary(self):
        z = compute_criteria(times(4), ["ON", "OFF", "ON", "OFF"])
        assert z.z_val is True

    def test_valence_nominal_false(self):
        z = compute_criteria(times(3), ["driving", "parking", "standby"])
        assert z.z_val is False

    def test_valence_numeric_strings(self):
        z = compute_criteria(times(3), ["1", "2", "10"])
        assert z.z_val is True


class TestTable3:
    """One test per row of Table 3."""

    def test_row1_numeric_high_many_true_alpha(self):
        c = classify(times(200, 0.01), [0.5 * i for i in range(200)])
        assert (c.data_type, c.branch) == (NUMERIC, ALPHA)

    def test_row2_numeric_low_many_true_beta(self):
        c = classify(times(10, 5.0), list(range(10)))
        assert (c.data_type, c.branch) == (ORDINAL, BETA)

    def test_row3_string_many_true_beta(self):
        c = classify(times(9), ["low", "medium", "high"] * 3)
        assert (c.data_type, c.branch) == (ORDINAL, BETA)

    def test_row4_string_two_true_binary_gamma(self):
        c = classify(times(8), ["ON", "OFF"] * 4)
        assert (c.data_type, c.branch) == (BINARY, GAMMA)

    def test_row5_string_many_false_nominal_gamma(self):
        c = classify(times(9), ["driving", "parking", "standby"] * 3)
        assert (c.data_type, c.branch) == (NOMINAL, GAMMA)

    def test_row6_numeric_two_true_binary_gamma(self):
        c = classify(times(8), [0, 1] * 4)
        assert (c.data_type, c.branch) == (BINARY, GAMMA)

    def test_row3_applies_at_any_rate(self):
        fast = classify(times(90, 0.001), ["low", "medium", "high"] * 30)
        slow = classify(times(9, 10.0), ["low", "medium", "high"] * 3)
        assert fast.branch == slow.branch == BETA


class TestFallbacks:
    def test_constant_signal_gamma(self):
        c = classify(times(5), [7] * 5)
        assert c.branch == GAMMA

    def test_two_valued_nominal_strings_gamma(self):
        c = classify(times(4), ["apple", "pear"] * 2)
        assert c.branch == GAMMA

    def test_empty_sequence_gamma(self):
        c = classify([], [])
        assert c.branch == GAMMA


class TestConfig:
    def test_rate_threshold_moves_boundary(self):
        slow_config = ClassifierConfig(rate_threshold=100.0)
        c = classify(times(100, 0.05), list(range(100)), slow_config)
        # 20 Hz < 100 Hz threshold -> low rate -> β instead of α.
        assert c.branch == BETA

    def test_custom_ordinal_vocabulary(self):
        config = ClassifierConfig(
            ordinal_vocabularies=(("cold", "warm", "hot"),)
        )
        c = classify(times(9), ["cold", "warm", "hot"] * 3, config)
        assert c.branch == BETA

    def test_custom_validity_values(self):
        config = ClassifierConfig(validity_values=frozenset({"broken"}))
        z = compute_criteria(times(4), [1, 2, "broken", 3], config)
        assert z.z_type == NUMERIC_TYPE
        assert z.z_num == 3


# -- the per-value reference ------------------------------------------------
#
# compute_criteria and _change_rate as they were before z_type became a
# test per value type and the gaps float64 arrays, copied verbatim: one
# isinstance test per value, Python float arithmetic per gap.


def reference_compute_criteria(times, values, config=None):
    """Compute ``Z`` for a time-ordered sequence of (t, v)."""
    config = config or ClassifierConfig()
    functional = [v for v in values if v not in config.validity_values]
    basis = functional if functional else list(values)
    z_type = (
        NUMERIC_TYPE
        if all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in basis)
        else STRING_TYPE
    )
    z_num = len(set(basis))
    z_rate = reference_change_rate(times, config)
    if z_type == NUMERIC_TYPE:
        z_val = True
    else:
        z_val = _orderable(set(map(str, basis)), config)
    return Criteria(z_type, z_rate, z_num, z_val)


def reference_change_rate(times, config):
    """Eq. 2: H if n/Δt over active segments exceeds the threshold T."""
    if len(times) < 2:
        return LOW_RATE
    gaps = [b - a for a, b in zip(times, times[1:])]
    positive = [g for g in gaps if g > 0]
    if not positive:
        return HIGH_RATE  # all simultaneous: infinitely fast
    # Shared nearest-rank median so classification and profiling agree
    # on median_gap for identical input (the old // 2 indexing took the
    # upper middle element for even-length sequences).
    median_gap = _median(positive)
    limit = config.activity_gap_factor * median_gap
    active_duration = sum(g for g in gaps if g <= limit)
    n = sum(1 for g in gaps if g <= limit) + 1
    if active_duration <= 0:
        return HIGH_RATE
    return HIGH_RATE if n / active_duration > config.rate_threshold else LOW_RATE


def pairwise_threshold(times, config):
    """``n/Δt`` of *times* with ``Δt`` summed pairwise (``np.sum``).

    As ``rate_threshold`` it separates left-to-right from pairwise
    summation wherever the two round differently (None where no rate).
    """
    with np.errstate(invalid="ignore"):
        gaps = np.diff(np.asarray(times, dtype=float))
    positive = np.sort(gaps[gaps > 0])
    if not len(positive):
        return None
    median_gap = positive[nearest_rank_index(len(positive), 50)]
    active = gaps[gaps <= config.activity_gap_factor * median_gap]
    total = float(np.sum(active))
    return (len(active) + 1) / total if total > 0 else None


VALUE_KINDS = (
    st.floats(),
    st.integers(-(10**20), 10**20),
    st.booleans(),
    st.floats().map(np.float64),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.sampled_from(["low", "medium", "high", "ON", "OFF", "1", "2.5", "x"]),
    st.sampled_from(sorted(ClassifierConfig().validity_values)),
    st.just(TRUNCATED),
)

value_lists = st.one_of(
    st.lists(st.one_of(*VALUE_KINDS), max_size=12),
    st.sampled_from(VALUE_KINDS).flatmap(
        lambda kind: st.lists(kind, max_size=12)
    ),
    # numbers with embedded validity labels
    st.lists(st.one_of(VALUE_KINDS[0], VALUE_KINDS[6]), max_size=12),
)

time_lists = st.one_of(
    st.lists(st.floats(), max_size=3),  # ±inf, nan, any order
    st.lists(st.floats(-1e3, 1e3), max_size=30),  # decreasing gaps too
    st.lists(st.sampled_from([0.0, 0.5, 1.0]), max_size=12).map(sorted),
    # regular gaps: left-to-right and pairwise sums differ for many
    st.tuples(
        st.sampled_from([0.1, 0.3, 0.7, 1 / 3, 0.01]),
        st.integers(8, 40),
    ).map(lambda step_n: [i * step_n[0] for i in range(step_n[1] + 1)]),
)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@given(
    times_=time_lists,
    values=value_lists,
    threshold=st.one_of(
        st.none(), st.just("pairwise"), st.floats(0.0, 100.0)
    ),
    factor=st.sampled_from([10.0, 1.0, 0.0]),
)
@settings(max_examples=300, deadline=None)
def test_property_criteria_match_the_per_value_reference(
    times_, values, threshold, factor
):
    config = ClassifierConfig(activity_gap_factor=factor)
    if threshold == "pairwise":
        threshold = pairwise_threshold(times_, config)
    if threshold is not None:
        config = ClassifierConfig(
            rate_threshold=threshold, activity_gap_factor=factor
        )
    assert compute_criteria(times_, values, config) == \
        reference_compute_criteria(times_, values, config)


class TestPerTypeCriteria:
    def test_active_duration_is_summed_left_to_right(self):
        # 16 gaps of ~0.3 s sum to 4.8 left to right, to 4.800000000000001
        # pairwise (np.sum). A threshold of 17 over the pairwise sum tells
        # the two apart: only the left-to-right sum is a rate above it.
        times_ = [0.3 * i for i in range(17)]
        config = ClassifierConfig(
            rate_threshold=pairwise_threshold(times_, ClassifierConfig())
        )
        assert sum(np.diff(times_).tolist()) != float(np.sum(np.diff(times_)))
        expected = reference_compute_criteria(times_, [1.0] * 17, config)
        assert expected.z_rate == HIGH_RATE
        assert compute_criteria(times_, [1.0] * 17, config) == expected

    @pytest.mark.parametrize("value, numeric", [
        (1, True), (1.5, True), (np.float64(1.5), True), (True, False),
        (np.int64(1), False), (np.bool_(True), False), ("1", False),
        (TRUNCATED, False), (None, False),
    ])
    def test_numeric_is_decided_like_isinstance(self, value, numeric):
        assert is_numeric_type(type(value)) is numeric
        assert all_numeric([value, value]) is numeric
        assert numeric_mask(["x", value, 2.0]).tolist() == [
            False, numeric, True,
        ]

    def test_the_predicate_runs_once_per_distinct_type(self, monkeypatch):
        calls = []

        def counted(cls):
            calls.append(cls)
            return is_numeric_type(cls)

        monkeypatch.setattr(classification, "is_numeric_type", counted)
        values = [1.0] * 500 + ["invalid"] * 3 + [2] * 7
        assert classification.numeric_mask(values).sum() == 507
        assert sorted(calls, key=str) == [float, int, str]
        calls.clear()
        assert not classification.all_numeric(values)
        assert len(calls) <= 3
