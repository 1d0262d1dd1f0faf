"""SAX: normalization, PAA, breakpoints, words and MINDIST."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import SaxEncoder, gaussian_breakpoints, paa, znormalize
from repro.analysis.sax import SaxError, symbolize_value

#: Gaussian quantiles ``ppf(k / a)`` below the median, 14 decimals, for every
#: reduced ``k / a`` with ``a <= 20``; the upper half follows by symmetry.
LOWER_QUANTILES = {
    (1, 20): -1.64485362695147, (1, 19): -1.61985625863827,
    (1, 18): -1.59321881802305, (1, 17): -1.56472647136180,
    (1, 16): -1.53412054435255, (1, 15): -1.50108594604402,
    (1, 14): -1.46523379268552, (1, 13): -1.42607687227285,
    (1, 12): -1.38299412710064, (1, 11): -1.33517773611894,
    (1, 10): -1.28155156554460, (2, 19): -1.25211952026522,
    (1, 9): -1.22064034884735, (2, 17): -1.18683143275582,
    (1, 8): -1.15034938037601, (2, 15): -1.11077161663679,
    (1, 7): -1.06757052387814, (3, 20): -1.03643338949379,
    (2, 13): -1.02007623278620, (3, 19): -1.00314796766253,
    (1, 6): -0.96742156610170, (3, 17): -0.92889949164727,
    (2, 11): -0.90845786853739, (3, 16): -0.88714655901888,
    (1, 5): -0.84162123357291, (4, 19): -0.80459638036030,
    (3, 14): -0.79163860774337, (2, 9): -0.76470967378639,
    (3, 13): -0.73631591737613, (4, 17): -0.72152228398234,
    (1, 4): -0.67448975019608, (5, 19): -0.63364000077970,
    (4, 15): -0.62292572321009, (3, 11): -0.60458534658324,
    (5, 18): -0.58945579784978, (2, 7): -0.56594882193286,
    (5, 17): -0.54139508512909, (3, 10): -0.52440051270804,
    (4, 13): -0.50240222337336, (5, 16): -0.48877641111467,
    (6, 19): -0.47950565333095, (1, 3): -0.43072729929546,
    (7, 20): -0.38532046640757, (6, 17): -0.37739194382855,
    (5, 14): -0.36610635680057, (4, 11): -0.34875569551704,
    (7, 19): -0.33603814037182, (3, 8): -0.31863936396438,
    (5, 13): -0.29338123212119, (7, 18): -0.28221614706251,
    (2, 5): -0.25334710313580, (7, 17): -0.22300783094037,
    (5, 12): -0.21042839424792, (8, 19): -0.19920132478927,
    (3, 7): -0.18001236979271, (7, 16): -0.15731068461017,
    (4, 9): -0.13971029888186, (9, 20): -0.12566134685507,
    (5, 11): -0.11418529432143, (6, 13): -0.09655861528964,
    (7, 15): -0.08365173390713, (8, 17): -0.07379127380827,
    (9, 19): -0.06601181237584,
}


def tabulated_quantile(k, alphabet_size):
    q = Fraction(k, alphabet_size)
    if q == Fraction(1, 2):
        return 0.0
    if q > Fraction(1, 2):
        return -tabulated_quantile(alphabet_size - k, alphabet_size)
    return LOWER_QUANTILES[q.numerator, q.denominator]


class TestBreakpoints:
    @pytest.mark.parametrize("alphabet_size", range(2, 21))
    def test_matches_tabulated_quantiles(self, alphabet_size):
        expected = [
            tabulated_quantile(k, alphabet_size)
            for k in range(1, alphabet_size)
        ]
        assert gaussian_breakpoints(alphabet_size) == pytest.approx(
            expected, rel=0, abs=1e-12
        )

    def test_memoised(self):
        assert gaussian_breakpoints(3) is gaussian_breakpoints(3)
        assert SaxEncoder(3).breakpoints is gaussian_breakpoints(3)

    def test_known_alphabet_3(self):
        lo, hi = gaussian_breakpoints(3)
        assert lo == pytest.approx(-0.4307, abs=1e-3)
        assert hi == pytest.approx(0.4307, abs=1e-3)

    def test_known_alphabet_4(self):
        bps = gaussian_breakpoints(4)
        assert bps[0] == pytest.approx(-0.6745, abs=1e-3)
        assert bps[1] == pytest.approx(0.0, abs=1e-12)

    def test_count_is_size_minus_one(self):
        for size in range(2, 10):
            assert len(gaussian_breakpoints(size)) == size - 1

    def test_monotone(self):
        bps = gaussian_breakpoints(8)
        assert list(bps) == sorted(bps)

    def test_invalid_size_rejected(self):
        with pytest.raises(SaxError):
            gaussian_breakpoints(1)
        with pytest.raises(SaxError):
            gaussian_breakpoints(99)


class TestZNormalize:
    def test_zero_mean_unit_std(self):
        z = znormalize([1.0, 2.0, 3.0, 4.0])
        assert z.mean() == pytest.approx(0.0, abs=1e-12)
        assert z.std() == pytest.approx(1.0, abs=1e-12)

    def test_constant_series_to_zeros(self):
        assert np.all(znormalize([5.0, 5.0, 5.0]) == 0.0)

    def test_empty(self):
        assert znormalize([]).size == 0


class TestPaa:
    def test_divisible_lengths_average_blocks(self):
        out = paa([1.0, 1.0, 5.0, 5.0], 2)
        assert list(out) == [1.0, 5.0]

    def test_same_length_is_identity(self):
        out = paa([1.0, 2.0, 3.0], 3)
        assert list(out) == [1.0, 2.0, 3.0]

    def test_non_divisible_fractional_cover(self):
        out = paa([1.0, 2.0, 3.0, 4.0, 5.0], 2)
        # First segment covers samples 1,2 and half of 3.
        assert out[0] == pytest.approx(1.8)
        assert out[1] == pytest.approx(4.2)

    def test_mean_preserved(self):
        x = np.linspace(0, 10, 30)
        assert paa(x, 7).mean() == pytest.approx(x.mean())

    def test_invalid_segments_rejected(self):
        with pytest.raises(SaxError):
            paa([1.0], 0)
        with pytest.raises(SaxError):
            paa([], 2)


class TestSymbolize:
    def test_bins(self):
        bps = gaussian_breakpoints(3)
        assert symbolize_value(-2.0, bps) == 0
        assert symbolize_value(0.0, bps) == 1
        assert symbolize_value(2.0, bps) == 2


class TestSaxEncoder:
    def test_word_length_and_alphabet(self):
        enc = SaxEncoder(alphabet_size=4, word_length=8)
        word = enc.encode_word(np.sin(np.linspace(0, 6.28, 100)))
        assert len(word) == 8
        assert set(word) <= set("abcd")

    def test_ramp_word_is_nondecreasing(self):
        enc = SaxEncoder(alphabet_size=5, word_length=5)
        word = enc.encode_word(np.linspace(0, 1, 50))
        assert list(word) == sorted(word)

    def test_encode_values_per_sample(self):
        enc = SaxEncoder(alphabet_size=3)
        symbols = enc.encode_values([0.0, 0.0, 100.0])
        assert len(symbols) == 3
        assert symbols[2] == "c"

    def test_symbol_for_level_external_stats(self):
        enc = SaxEncoder(alphabet_size=3)
        assert enc.symbol_for_level(0.0, mean=0.0, std=1.0) == "b"
        assert enc.symbol_for_level(5.0, mean=0.0, std=1.0) == "c"
        assert enc.symbol_for_level(-5.0, mean=0.0, std=1.0) == "a"

    def test_symbol_for_level_zero_std(self):
        enc = SaxEncoder(alphabet_size=3)
        assert enc.symbol_for_level(7.0, mean=7.0, std=0.0) == "b"

    def test_invalid_word_length_rejected(self):
        with pytest.raises(SaxError):
            SaxEncoder(word_length=0)


class TestMindist:
    def test_identical_words_zero(self):
        enc = SaxEncoder(alphabet_size=4, word_length=4)
        assert enc.mindist("abcd", "abcd", 100) == 0.0

    def test_adjacent_symbols_zero(self):
        """MINDIST treats adjacent symbols as distance 0 (Lin et al.)."""
        enc = SaxEncoder(alphabet_size=4, word_length=2)
        assert enc.mindist("ab", "ba", 100) == 0.0

    def test_distant_symbols_positive(self):
        enc = SaxEncoder(alphabet_size=4, word_length=2)
        assert enc.mindist("aa", "dd", 100) > 0.0

    def test_symmetry(self):
        enc = SaxEncoder(alphabet_size=5, word_length=3)
        assert enc.mindist("ace", "eca", 60) == enc.mindist("eca", "ace", 60)

    def test_length_mismatch_rejected(self):
        enc = SaxEncoder(alphabet_size=4, word_length=2)
        with pytest.raises(SaxError):
            enc.mindist("ab", "abc", 10)

    def test_lower_bounds_euclidean(self):
        """MINDIST(word_a, word_b) <= Euclidean distance of the series."""
        rng = np.random.default_rng(7)
        enc = SaxEncoder(alphabet_size=6, word_length=8)
        a = rng.normal(0, 1, 64)
        b = rng.normal(0, 1, 64)
        na, nb = znormalize(a), znormalize(b)
        euclid = float(np.sqrt(((na - nb) ** 2).sum()))
        bound = enc.mindist(enc.encode_word(a), enc.encode_word(b), 64)
        assert bound <= euclid + 1e-9


@given(
    values=st.lists(
        st.floats(min_value=-1e4, max_value=1e4, allow_nan=False),
        min_size=2,
        max_size=100,
    ),
    alphabet=st.integers(min_value=2, max_value=10),
)
@settings(max_examples=60, deadline=None)
def test_property_word_symbols_in_alphabet(values, alphabet):
    enc = SaxEncoder(alphabet_size=alphabet, word_length=4)
    word = enc.encode_word(values)
    allowed = "abcdefghijklmnopqrstuvwxyz"[:alphabet]
    assert set(word) <= set(allowed)
