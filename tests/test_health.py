import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fleetlife.fleet import VoltageClass
from fleetlife.health import (
    AGE_FRACTIONS,
    LONG_WINDOW,
    PROBABILITY_BANDS,
    SHORT_WINDOW,
    YOUNG_AGE_CUTOFF,
    Band,
    ScoreBasis,
    age_scores,
    band_for_score,
    basis_for_score,
    probability_scores,
    score_asset,
    threshold_age,
)
from fleetlife.weibull import REFERENCE_LAWS, WeibullLaw

LAW_110 = REFERENCE_LAWS[VoltageClass.V110]
LAW_150 = REFERENCE_LAWS[VoltageClass.V150]
LAW_220 = REFERENCE_LAWS[VoltageClass.V220_380]


class TestBands:
    def test_score_to_band(self):
        assert [band_for_score(s) for s in range(1, 11)] == [
            Band.PURPLE,
            Band.PURPLE,
            Band.PURPLE,
            Band.RED,
            Band.RED,
            Band.RED,
            Band.ORANGE,
            Band.ORANGE,
            Band.GREEN,
            Band.GREEN,
        ]

    def test_score_to_basis(self):
        assert [basis_for_score(s) for s in range(1, 11)] == (
            [ScoreBasis.PROBABILITY] * 6 + [ScoreBasis.AGE] * 4
        )

    def test_out_of_range(self):
        for score in (0, 11, -3):
            with pytest.raises(ValueError):
                band_for_score(score)
            with pytest.raises(ValueError):
                basis_for_score(score)


def p_score(p_short, p_long):
    """probability_scores on one asset, with None where no band matches."""
    return int(probability_scores([p_short], [p_long])[0]) or None


def a_score(age, average):
    """age_scores on one asset."""
    return int(age_scores([age], average)[0])


class TestProbabilityScores:
    def test_short_window_bands(self):
        assert p_score(0.85, 0.9) == 1
        assert p_score(0.55, 0.6) == 2
        assert p_score(0.25, 0.3) == 3

    def test_long_window_bands(self):
        assert p_score(0.1, 0.85) == 4
        assert p_score(0.1, 0.55) == 5
        assert p_score(0.1, 0.25) == 6

    def test_no_band_matched(self):
        assert p_score(0.0, 0.0) is None
        assert p_score(0.1, 0.19) is None

    def test_threshold_inclusive(self):
        assert p_score(0.8, 0.9) == 1
        assert p_score(0.1, 0.2) == 6

    def test_inconsistent_inputs_rejected(self):
        with pytest.raises(ValueError, match="inconsistent"):
            p_score(0.5, 0.4)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            p_score(-0.1, 0.5)
        with pytest.raises(ValueError):
            p_score(0.5, 1.2)

    @given(
        st.floats(0, 1, allow_nan=False),
        st.floats(0, 1, allow_nan=False),
        st.floats(0, 1, allow_nan=False),
    )
    @settings(max_examples=150)
    def test_monotone_in_probabilities(self, p_short, p_long, bump):
        p_long = max(p_long, p_short)
        base = p_score(p_short, p_long)
        worse_short = min(1.0, p_short + bump)
        worse = p_score(worse_short, max(p_long, worse_short))
        if base is not None:
            assert worse is not None and worse <= base


class TestAgeScores:
    def test_young_asset(self):
        assert a_score(3.0, 50.0) == 10
        assert a_score(3.0, 1.0) == 10

    def test_age_zero_fleet(self):
        assert a_score(0.0, 0.0) == 10

    def test_above_high_fraction(self):
        assert a_score(40.0, 50.0) == 7

    def test_between_fractions(self):
        assert a_score(35.0, 50.0) == 8

    def test_below_low_fraction(self):
        assert a_score(20.0, 50.0) == 9

    def test_boundaries(self):
        assert a_score(37.5, 50.0) == 8
        assert a_score(30.0, 50.0) == 9
        assert a_score(5.0, 50.0) == 9

    def test_invalid(self):
        with pytest.raises(ValueError):
            a_score(-1.0, 50.0)
        with pytest.raises(ValueError):
            a_score(20.0, 0.0)


def score_one(law, age, average):
    """score_asset on a single age, as a (score, Band, ScoreBasis) tuple."""
    score = int(score_asset(law, [age], average)[0])
    return score, band_for_score(score), basis_for_score(score)


class TestScoreAsset:
    def test_old_110_asset_hits_probability_band(self):
        # p over 3 years at apparent age 70 is about 0.451, clearing the 0.2
        # band of the short window
        p_short = LAW_110.conditional_failure_probability(70.0, 3.0)
        assert p_short == pytest.approx(0.45130524134, rel=1e-9)
        result = score_one(LAW_110, 70.0, 40.0)
        assert result == (3, Band.PURPLE, ScoreBasis.PROBABILITY)

    def test_new_asset(self):
        result = score_one(LAW_110, 0.0, 40.0)
        assert result == (10, Band.GREEN, ScoreBasis.AGE)

    def test_mid_age_150_asset_falls_through_to_age(self):
        assert LAW_150.conditional_failure_probability(40.0, 7.0) < 0.2
        result = score_one(LAW_150, 40.0, 40.0)
        assert result == (7, Band.ORANGE, ScoreBasis.AGE)

    def test_very_old_asset_is_score_one(self):
        score, _, basis = score_one(LAW_110, 100.0, 40.0)
        assert score == 1
        assert basis is ScoreBasis.PROBABILITY

    def test_columns_align_with_ages(self):
        scores = score_asset(LAW_110, [100.0, 0.0, 70.0, 40.0], 40.0)
        assert scores.tolist() == [1, 10, 3, 7]

    def test_empty(self):
        assert len(score_asset(LAW_110, [], 40.0)) == 0

    def test_negative_age_rejected(self):
        with pytest.raises(ValueError, match="negative age"):
            score_asset(LAW_110, [10.0, -1.0], 40.0)

    def test_non_positive_average_rejected_once_compared(self):
        assert score_asset(LAW_110, [1.0, 2.0], 0.0).tolist() == [10, 10]
        with pytest.raises(ValueError, match="average age must be positive"):
            score_asset(LAW_110, [1.0, 20.0], 0.0)


def scalar_score(law, age, average):
    """The bands restated for one asset, from the law's scalar probabilities:
    its score, the basis of the band that gave it, and the probabilities."""
    p = (
        law.conditional_failure_probability(age, SHORT_WINDOW),
        law.conditional_failure_probability(age, LONG_WINDOW),
    )
    for offset, prob in zip((0, 3), p):
        for rank, threshold in enumerate(PROBABILITY_BANDS, start=1):
            if prob >= threshold:
                return offset + rank, ScoreBasis.PROBABILITY, p
    if age < YOUNG_AGE_CUTOFF:
        return 10, ScoreBasis.AGE, p
    high, low = AGE_FRACTIONS
    if age > high * average:
        return 7, ScoreBasis.AGE, p
    return (8 if age > low * average else 9), ScoreBasis.AGE, p


def near_threshold(p):
    # numpy's vectorized pow and expm1 may differ from libm's in the last
    # place, so a probability within a few ulps of a band edge may land on
    # either side of it
    return any(abs(x - t) <= 1e-14 for x in p for t in PROBABILITY_BANDS)


def edge_ages(law, average):
    """Ages at every band edge: probability thresholds, age fractions, cutoff."""
    ages = [YOUNG_AGE_CUTOFF, np.nextafter(YOUNG_AGE_CUTOFF, 0.0)]
    ages += [f * average for f in AGE_FRACTIONS]
    for window in (SHORT_WINDOW, LONG_WINDOW):
        for level in PROBABILITY_BANDS:
            ages.append(threshold_age(law, window, level))
    return ages


@given(
    st.sampled_from([LAW_110, LAW_150, LAW_220, WeibullLaw(2.5, 30.0)]),
    st.lists(st.floats(0.0, 120.0), max_size=40),
    st.floats(1.0, 80.0),
)
@settings(max_examples=150, deadline=None)
def test_array_scores_match_scalar_bands(law, ages, average):
    ages = ages + edge_ages(law, average)
    scores = score_asset(law, ages, average)
    assert len(scores) == len(ages)
    for age, score in zip(ages, scores.tolist()):
        expected, basis, p = scalar_score(law, age, average)
        if not near_threshold(p):
            assert score == expected, age
            # the basis that ahi.csv reports is the rule that set the score
            assert basis_for_score(score) is basis, age


class TestThresholdAge:
    def test_reference_110_long_window(self):
        t = threshold_age(LAW_110, 7.0, 0.2)
        assert 48.0 <= t <= 48.1
        assert LAW_110.conditional_failure_probability(t, 7.0) == pytest.approx(
            0.2, abs=1e-6
        )

    def test_reference_150_long_window(self):
        t = threshold_age(LAW_150, 7.0, 0.2)
        assert 58.0 <= t <= 58.1

    def test_already_above_at_zero(self):
        p0 = LAW_110.conditional_failure_probability(0.0, 3.0)
        assert p0 > 0
        assert threshold_age(LAW_110, 3.0, p0 / 2) == 0.0

    def test_non_aging_law_rejected(self):
        with pytest.raises(ValueError, match="non-monotone"):
            threshold_age(WeibullLaw(1.0, 50.0), 3.0, 0.5)
        with pytest.raises(ValueError, match="non-monotone"):
            threshold_age(WeibullLaw(0.7, 50.0), 3.0, 0.5)

    def test_unreachable_level(self):
        with pytest.raises(ValueError, match="not reached"):
            threshold_age(WeibullLaw(1.5, 50.0), 0.001, 0.999999)

    def test_round_trip_across_laws(self):
        for law in (LAW_110, LAW_150, LAW_220):
            for window in (3.0, 7.0):
                for p in (0.2, 0.5, 0.8):
                    t = threshold_age(law, window, p)
                    assert abs(
                        law.conditional_failure_probability(t, window) - p
                    ) <= 1e-6

    def test_decreasing_in_level_and_window(self):
        for law in (LAW_110, LAW_150):
            levels = [threshold_age(law, 7.0, p) for p in (0.2, 0.5, 0.8)]
            assert levels[0] < levels[1] < levels[2]
            # same level is reached later when the look-ahead is shorter
            assert threshold_age(law, 3.0, 0.2) > threshold_age(law, 7.0, 0.2)


def test_fixed_thresholds():
    # the scheme's windows, bands and age shares, each ordered as the band
    # rules read them
    assert (SHORT_WINDOW, LONG_WINDOW) == (3.0, 7.0)
    assert PROBABILITY_BANDS == (0.8, 0.5, 0.2)
    assert AGE_FRACTIONS == (0.75, 0.60)
    assert YOUNG_AGE_CUTOFF == 5.0
