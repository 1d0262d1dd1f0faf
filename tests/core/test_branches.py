"""Type-dependent branch processing α/β/γ (lines 13-28)."""

import numpy as np
import pytest

from repro.core import (
    BranchConfig,
    KIND_BINARY,
    KIND_NOMINAL,
    KIND_OUTLIER,
    KIND_SYMBOL,
    KIND_VALIDITY,
    classify,
)
from repro.core.branches import BranchError, process_branch
from repro.core.classification import (
    ALPHA,
    BETA,
    GAMMA,
    NUMERIC,
    ORDINAL,
    Classification,
)
from tests.core.row_reference import sequence_of


def process_alpha(sequence):
    return process_branch(sequence, Classification(None, NUMERIC, ALPHA))


def process_beta(sequence):
    return process_branch(sequence, Classification(None, ORDINAL, BETA))


def process_gamma(sequence, data_type):
    return process_branch(sequence, Classification(None, data_type, GAMMA))


def rows_from_values(values, dt=0.05, s_id="s", b_id="FC"):
    return [(dt * i, v, s_id, b_id) for i, v in enumerate(values)]


class TestAlpha:
    def make_numeric_rows(self, n=200, outlier_at=(50,)):
        rng = np.random.default_rng(3)
        values = np.sin(np.linspace(0, 6 * np.pi, n)) * 10 + 20
        values += rng.normal(0, 0.1, n)
        values = list(values)
        for i in outlier_at:
            values[i] = 500.0
        return rows_from_values(values)

    def test_output_layout(self):
        out = process_alpha(sequence_of(self.make_numeric_rows()))
        assert all(len(r) == 6 for r in out)

    def test_outliers_preserved_as_potential_errors(self):
        out = process_alpha(sequence_of(self.make_numeric_rows()))
        outliers = [r for r in out if r[3] == KIND_OUTLIER]
        assert len(outliers) == 1
        assert outliers[0][4] == 500.0
        assert outliers[0][0] == pytest.approx(50 * 0.05)

    def test_segments_symbolized(self):
        rows = self.make_numeric_rows(outlier_at=())
        out = process_alpha(sequence_of(rows))
        symbols = [r for r in out if r[3] == KIND_SYMBOL]
        assert symbols
        labels = {r[4] for r in symbols}
        assert labels <= {"low", "medium", "high"}
        trends = {r[5] for r in symbols}
        assert trends <= {"increasing", "decreasing", "steady"}

    def test_sine_has_both_trends(self):
        rows = self.make_numeric_rows(outlier_at=())
        out = process_alpha(sequence_of(rows))
        trends = {r[5] for r in out if r[3] == KIND_SYMBOL}
        assert "increasing" in trends
        assert "decreasing" in trends

    def test_compresses_to_fewer_rows(self):
        rows = self.make_numeric_rows(outlier_at=())
        out = process_alpha(sequence_of(rows))
        assert len(out) < len(rows) / 2

    def test_output_time_sorted(self):
        out = process_alpha(sequence_of(self.make_numeric_rows()))
        times = [r[0] for r in out]
        assert times == sorted(times)

    def test_embedded_strings_peeled_off(self):
        rows = rows_from_values([1.0, 2.0, "invalid", 3.0, 4.0, 5.0, 6.0])
        out = process_alpha(sequence_of(rows))
        validity = [r for r in out if r[3] == KIND_VALIDITY]
        assert len(validity) == 1

    def test_empty(self):
        assert process_alpha(sequence_of([])) == []

    def test_only_strings_ordered_like_every_other_exit(self):
        # Equal t: _row_key orders by kind, plain tuple order by b_id.
        rows = [(1.0, "invalid", "s", "AA"), (1.0, "parked", "s", "ZZ")]
        out = process_alpha(sequence_of(rows))
        assert [(r[2], r[3]) for r in out] == [
            ("ZZ", KIND_NOMINAL), ("AA", KIND_VALIDITY),
        ]
        with_numbers = process_alpha(
            sequence_of(rows + [(2.0, 5.0, "s", "AA")])
        )
        assert with_numbers[:2] == out

    def test_all_outliers_edge_case(self):
        # Two extreme populations; nothing crashes and rows survive.
        rows = rows_from_values([0.0] * 50 + [1000.0])
        out = process_alpha(sequence_of(rows))
        assert len(out) >= 1


class TestBeta:
    LEVELS = ["low", "medium", "high", "medium", "low"] * 4

    def test_levels_translated_with_trend(self):
        out = process_beta(sequence_of(rows_from_values(self.LEVELS, dt=2.0)))
        symbols = [r for r in out if r[3] == KIND_SYMBOL]
        assert len(symbols) == len(self.LEVELS)
        assert {r[4] for r in symbols} == {"low", "medium", "high"}
        assert "increasing" in {r[5] for r in symbols}

    def test_validity_split(self):
        values = ["low", "invalid", "high", "invalid", "medium"]
        out = process_beta(sequence_of(rows_from_values(values, dt=2.0)))
        validity = [r for r in out if r[3] == KIND_VALIDITY]
        assert len(validity) == 2
        assert all(r[4] == "invalid" for r in validity)

    def test_numeric_ordinals(self):
        values = [10.0, 11.0, 12.0, 12.0, 11.0]
        out = process_beta(sequence_of(rows_from_values(values, dt=5.0)))
        symbols = [r for r in out if r[3] == KIND_SYMBOL]
        assert len(symbols) == 5

    def test_numeric_outlier_detected(self):
        values = [10.0, 11.0, 12.0, 9999.0] + [10.0, 11.0, 12.0] * 10
        out = process_beta(sequence_of(rows_from_values(values, dt=5.0)))
        outliers = [r for r in out if r[3] == KIND_OUTLIER]
        assert len(outliers) == 1
        assert outliers[0][4] == 9999.0

    def test_vocabulary_order_used_for_ranks(self):
        """Trends must follow low<medium<high, not alphabetical order."""
        values = ["low", "medium", "high"] * 5
        out = process_beta(sequence_of(rows_from_values(values, dt=2.0)))
        first_trend = [r for r in out if r[3] == KIND_SYMBOL][0][5]
        assert first_trend == "increasing"

    def test_only_validity_values(self):
        out = process_beta(sequence_of(rows_from_values(["invalid"] * 3)))
        assert all(r[3] == KIND_VALIDITY for r in out)

    def test_empty(self):
        assert process_beta(sequence_of([])) == []


class TestGamma:
    def test_binary_kind(self):
        out = process_gamma(
            sequence_of(rows_from_values(["ON", "OFF"] * 3)), "binary"
        )
        assert all(r[3] == KIND_BINARY for r in out)
        assert all(r[5] is None for r in out)

    def test_nominal_kind(self):
        out = process_gamma(
            sequence_of(rows_from_values(["driving", "parking"])), "nominal"
        )
        assert all(r[3] == KIND_NOMINAL for r in out)

    def test_validity_split(self):
        out = process_gamma(
            sequence_of(rows_from_values(["ON", "invalid", "OFF"])), "binary"
        )
        kinds = [r[3] for r in out]
        assert kinds.count(KIND_VALIDITY) == 1
        assert kinds.count(KIND_BINARY) == 2

    def test_no_transformation_row_count(self):
        rows = rows_from_values(["a", "b", "c"])
        assert len(process_gamma(sequence_of(rows), "nominal")) == len(rows)


class TestDispatch:
    def test_dispatch_matches_classification(self):
        values = ["ON", "OFF"] * 4
        rows = rows_from_values(values)
        c = classify([r[0] for r in rows], values)
        out = process_branch(sequence_of(rows), c)
        assert all(r[3] == KIND_BINARY for r in out)

    def test_unknown_branch_rejected(self):
        class Fake:
            branch = "delta"
            data_type = "numeric"

        with pytest.raises(BranchError):
            process_branch(sequence_of([]), Fake())


class TestBranchConfig:
    def test_level_label_known_sizes(self):
        from repro.analysis import SaxEncoder

        config = BranchConfig(sax=SaxEncoder(alphabet_size=5))
        assert config.level_label(0) == "very_low"
        assert config.level_label(4) == "very_high"

    def test_level_label_falls_back_to_letters(self):
        from repro.analysis import SaxEncoder

        config = BranchConfig(sax=SaxEncoder(alphabet_size=7))
        assert config.level_label(0) == "a"
