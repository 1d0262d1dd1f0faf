"""Criteria Z and the Table 3 branch assignment (Sec. 4.2)."""

import pytest

from repro.core import (
    ALPHA,
    BETA,
    GAMMA,
    ClassifierConfig,
    SequenceClassifier,
    classify,
    compute_criteria,
)
from repro.core.classification import (
    BINARY,
    HIGH_RATE,
    LOW_RATE,
    NOMINAL,
    NUMERIC,
    NUMERIC_TYPE,
    ORDINAL,
    STRING_TYPE,
)


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


class TestSequenceClassifier:
    def test_affiliation_mask(self):
        clf = SequenceClassifier()
        mask = clf.affiliation_mask(["low", "invalid", "high"])
        assert mask == [True, False, True]
