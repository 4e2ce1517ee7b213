import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from conftest import single_family
from fleetlife.fleet import VoltageClass
from fleetlife.survival import km_fit
from fleetlife.weibull import (
    REFERENCE_LAWS,
    FitError,
    WeibullLaw,
    fit_weibull_mle,
    fit_weibull_rank_regression,
    law_from_record,
    law_to_record,
)
from reference_laws import cdf, pdf, sample, survival

LAW_110 = REFERENCE_LAWS[VoltageClass.V110]
LAW_150 = REFERENCE_LAWS[VoltageClass.V150]
LAW_220 = REFERENCE_LAWS[VoltageClass.V220_380]


def events(durations):
    return single_family(durations, [True] * len(durations))


def censored_at(lifetimes, cutoff):
    return single_family(np.minimum(lifetimes, cutoff), np.asarray(lifetimes) <= cutoff)


def fit_mle(table):
    """fit_weibull_mle on a table, started as the fit command starts it: from
    rank regression on its Kaplan-Meier curve, where that fits."""
    try:
        rank_law = fit_weibull_rank_regression(km_fit(table))
    except ValueError:
        rank_law = None
    return fit_weibull_mle(table, rank_law)


class TestLawEvaluation:
    def test_cdf_at_scale_is_one_minus_inv_e(self):
        for law in (LAW_110, LAW_150, WeibullLaw(1.3, 5.0)):
            assert cdf(law, law.eta) == pytest.approx(1 - math.exp(-1), abs=1e-12)

    def test_boundary_values(self):
        assert cdf(LAW_110, 0.0) == 0.0
        assert survival(LAW_110, 0.0) == 1.0
        assert LAW_110.cumulative_hazard(0.0) == 0.0

    def test_negative_age_rejected(self):
        for method in (cdf, pdf, survival, WeibullLaw.cumulative_hazard):
            with pytest.raises(ValueError, match="negative age"):
                method(LAW_110, -1.0)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            WeibullLaw(beta=0.0, eta=10.0)
        with pytest.raises(ValueError):
            WeibullLaw(beta=2.0, eta=-1.0)

    def test_pdf_integrates_to_cdf(self):
        integral, _ = quad(lambda t: pdf(LAW_110, t), 0.0, 80.0, limit=200)
        assert abs(integral - cdf(LAW_110, 80.0)) <= 1e-8

    def test_pdf_matches_cdf_derivative(self):
        law = LAW_110
        h = 1e-5 * law.eta
        for t in np.linspace(0.1 * law.eta, 2.0 * law.eta, 25):
            numeric = (cdf(law, t + h) - cdf(law, t - h)) / (2 * h)
            assert numeric == pytest.approx(pdf(law, t), rel=1e-6)

    def test_survival_cdf_complement(self):
        for t in (0.0, 10.0, 50.0, 90.0):
            assert cdf(LAW_150, t) + survival(LAW_150, t) == pytest.approx(1.0, abs=1e-12)


class TestMedian:
    def test_reference_110(self):
        assert LAW_110.median() == pytest.approx(60.37933888003084, rel=1e-12)

    def test_exponential_special_case(self):
        assert WeibullLaw(1.0, 10.0).median() == pytest.approx(
            10 * math.log(2), rel=1e-12
        )

    def test_reference_150(self):
        assert LAW_150.median() == pytest.approx(70.0826254968108, rel=1e-12)

    def test_median_satisfies_cdf_half(self):
        for law in (LAW_110, LAW_150, LAW_220, WeibullLaw(0.8, 4.0)):
            assert abs(cdf(law, law.median()) - 0.5) <= 1e-12


class TestConditionalFailureProbability:
    def test_at_zero_equals_cdf(self):
        for window in (1.0, 3.0, 7.0):
            assert LAW_110.conditional_failure_probability(0.0, window) == cdf(LAW_110, window)

    def test_reference_value_at_60(self):
        assert LAW_110.conditional_failure_probability(60.0, 3.0) == pytest.approx(
            0.22556986583535968, rel=1e-12
        )

    def test_per_tick_probability_value(self):
        # closed form over a one-month tick: 1 - exp(H(60) - H(60 + 1/12))
        h0 = (60.0 / 63.79) ** 6.67
        h1 = ((60.0 + 1 / 12) / 63.79) ** 6.67
        expected = -math.expm1(h0 - h1)
        assert expected == pytest.approx(0.0061621341, rel=1e-7)
        assert LAW_110.conditional_failure_probability(60.0, 1 / 12) == pytest.approx(
            expected, rel=1e-12
        )

    def test_matches_naive_ratio(self):
        for t in (10.0, 40.0, 60.0, 75.0):
            naive = 1.0 - survival(LAW_110, t + 3.0) / survival(LAW_110, t)
            stable = LAW_110.conditional_failure_probability(t, 3.0)
            assert abs(stable - naive) <= 1e-12

    def test_no_underflow_at_extreme_age(self):
        # survival ratio underflows to 0/0 here; the hazard form stays exact
        t = 50.0 * LAW_110.eta
        p = LAW_110.conditional_failure_probability(t, 3.0)
        assert p == 1.0

    def test_overflowing_hazard_is_certain_failure(self):
        # under a vanishing scale H(t) = (t / eta) ** beta passes the float
        # range, or t / eta already does; the probability is 1, its limit as
        # the scale shrinks, in the scalar and in the array form alike, and
        # no overflow warning escapes
        ages = [0.0, 1e-300, 21.0, 41.0]
        for law in (WeibullLaw(6.67, 1e-300), WeibullLaw(0.5, 5e-324)):
            array = law.interval_failure_probability(np.array(ages), np.array(ages) + 3.0)
            scalar = [law.conditional_failure_probability(t, 3.0) for t in ages]
            assert array.tolist() == scalar == [1.0] * len(ages)

    def test_vanishes_with_window(self):
        values = [
            LAW_110.conditional_failure_probability(50.0, w)
            for w in (4.0, 2.0, 1.0, 0.5, 0.25, 1e-6)
        ]
        assert all(b < a for a, b in zip(values, values[1:]))
        assert values[-1] < 1e-6

    def test_monotone_in_window_and_age(self):
        ages = np.linspace(0.0, 2.0 * LAW_110.eta, 20)
        windows = np.linspace(0.5, 10.0, 20)
        for t in ages:
            row = [LAW_110.conditional_failure_probability(t, w) for w in windows]
            assert all(b >= a for a, b in zip(row, row[1:]))
        for w in windows:
            col = [LAW_110.conditional_failure_probability(t, w) for t in ages]
            assert all(b >= a for a, b in zip(col, col[1:]))

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            LAW_110.conditional_failure_probability(-1.0, 3.0)
        with pytest.raises(ValueError):
            LAW_110.conditional_failure_probability(10.0, 0.0)


class TestConditionalFailureAge:
    # The start age is set by its cumulative hazard, at most 20 times e, so
    # that H(age) - H(start) keeps its relative precision.
    @settings(max_examples=300, deadline=None)
    @given(
        beta=st.floats(0.5, 8.0),
        eta=st.floats(1.0, 100.0),
        e=st.floats(1e-6, 30.0),
        ratio=st.floats(0.0, 20.0),
    )
    def test_inverts_conditional_failure_probability(self, beta, eta, e, ratio):
        law = WeibullLaw(beta, eta)
        start = eta * (ratio * e) ** (1.0 / beta)
        age = float(law.conditional_failure_age(np.array([start]), np.array([e]))[0])
        assert law.conditional_failure_probability(start, age - start) == pytest.approx(
            -math.expm1(-e), rel=1e-12
        )


def naive_log_likelihood(law, observations):
    total = 0.0
    for t, event in zip(observations.duration.tolist(), observations.event.tolist()):
        total += math.log(pdf(law, t)) if event else -law.cumulative_hazard(t)
    return total


class TestMleFit:
    def test_recovers_censored_sample(self):
        rng = np.random.default_rng(101)
        lifetimes = sample(WeibullLaw(6.5, 70.0), 5000, rng)
        law, diag = fit_mle(censored_at(lifetimes, 60.0))
        assert law.beta == pytest.approx(6.5, rel=0.05)
        assert law.eta == pytest.approx(70.0, rel=0.02)
        assert diag.converged and diag.iterations <= 200
        assert diag.event_count + diag.censored_count == 5000

    def test_exponential_data(self):
        rng = np.random.default_rng(7)
        lifetimes = sample(WeibullLaw(1.0, 50.0), 5000, rng)
        law, _ = fit_mle(events(lifetimes))
        assert 0.95 <= law.beta <= 1.05

    def test_insufficient_events(self):
        obs = single_family([5.0] * 10 + [3.0], [False] * 10 + [True])
        with pytest.raises(ValueError, match="insufficient events"):
            fit_mle(obs)

    def test_zero_duration_event_rejected(self):
        with pytest.raises(ValueError, match="zero-duration"):
            fit_mle(events([0.0, 1.0, 2.0]))

    def test_degenerate_identical_events(self):
        with pytest.raises(FitError) as excinfo:
            fit_mle(events([1.0, 1.0, 1.0, 1.0]))
        assert excinfo.value.diagnostics is not None
        assert excinfo.value.diagnostics.converged is False

    def test_local_maximum(self):
        rng = np.random.default_rng(11)
        lifetimes = sample(WeibullLaw(4.0, 30.0), 800, rng)
        obs = censored_at(lifetimes, 35.0)
        law, diag = fit_mle(obs)
        best = naive_log_likelihood(law, obs)
        assert best == pytest.approx(diag.log_likelihood, rel=1e-9)
        for beta, eta in (
            (law.beta * 1.01, law.eta),
            (law.beta * 0.99, law.eta),
            (law.beta, law.eta * 1.01),
            (law.beta, law.eta * 0.99),
        ):
            assert naive_log_likelihood(WeibullLaw(beta, eta), obs) <= best

    def test_agrees_with_rank_regression_on_complete_sample(self):
        rng = np.random.default_rng(21)
        lifetimes = sample(WeibullLaw(3.0, 40.0), 4000, rng)
        obs = events(lifetimes)
        mle, _ = fit_mle(obs)
        rr = fit_weibull_rank_regression(km_fit(obs))
        assert mle.beta == pytest.approx(rr.beta, rel=0.10)
        assert mle.eta == pytest.approx(rr.eta, rel=0.10)


class TestRankRegression:
    def test_exact_curve_recovery(self):
        from fleetlife.survival import SurvivalCurve

        times = np.linspace(20.0, 90.0, 10)
        values = np.array([survival(LAW_110, float(t)) for t in times])
        curve = SurvivalCurve(times, 100 - np.arange(10), np.ones(10, dtype=np.int64), values)
        law = fit_weibull_rank_regression(curve)
        assert law.beta == pytest.approx(6.67, rel=1e-6)
        assert law.eta == pytest.approx(63.79, rel=1e-6)

    def test_zero_survival_point_excluded(self):
        curve = km_fit(events([10.0, 20.0, 30.0, 40.0]))
        assert curve.survival[-1] == 0.0
        law = fit_weibull_rank_regression(curve)
        assert law.beta > 0

    def test_two_point_exact_line(self):
        from fleetlife.survival import SurvivalCurve

        target = WeibullLaw(2.5, 55.0)
        times = np.array([30.0, 70.0])
        values = np.array([survival(target, t) for t in times.tolist()])
        curve = SurvivalCurve(times, np.array([10, 10]), np.array([1, 1]), values)
        law = fit_weibull_rank_regression(curve)
        assert law.beta == pytest.approx(2.5, rel=1e-9)
        assert law.eta == pytest.approx(55.0, rel=1e-9)

    def test_too_few_usable_points(self):
        curve = km_fit(events([10.0, 10.0, 10.0]))
        with pytest.raises(ValueError, match="at least 2 usable"):
            fit_weibull_rank_regression(curve)


class TestSampling:
    def test_deterministic_per_seed(self):
        a = sample(LAW_110, 100, np.random.default_rng(5))
        b = sample(LAW_110, 100, np.random.default_rng(5))
        assert np.array_equal(a, b)

    def test_empirical_cdf_plausible(self):
        draws = sample(LAW_110, 20000, np.random.default_rng(6))
        empirical = float(np.mean(draws <= LAW_110.median()))
        assert empirical == pytest.approx(0.5, abs=0.02)

    @settings(max_examples=200, deadline=None)
    @given(beta=st.floats(0.2, 100.0), eta=st.floats(1e-3, 1e3), seed=st.integers(0, 2**64 - 1))
    def test_failure_age_from_zero_is_the_sample(self, beta, eta, seed):
        # the program draws lifetimes as conditional failure ages from age 0
        law = WeibullLaw(beta, eta)
        e = -np.log1p(-np.random.default_rng(seed).random(300))
        ages = law.conditional_failure_age(0.0, e)
        assert ages.tobytes() == sample(law, 300, np.random.default_rng(seed)).tobytes()


def test_law_record_round_trip():
    record = law_to_record(LAW_150, "150", "mle")
    family, law, source = law_from_record(record)
    assert (family, law, source) == (VoltageClass.V150, LAW_150, "mle")
    with pytest.raises(ValueError, match=r"^law\.eta: required$"):
        law_from_record({"family": "150", "beta": 2.0})


@pytest.mark.parametrize(
    "record, named",
    [
        ([1], r"^laws\[2\]: expected an object, got list$"),
        (None, r"^laws\[2\]: expected an object, got NoneType$"),
        ({"family": "150", "beta": True, "eta": 60.0}, r"^laws\[2\].beta: expected a number, got bool$"),
        ({"family": "150", "beta": "2", "eta": 60.0}, r"^laws\[2\].beta: expected a number, got str$"),
        ({"family": "150", "beta": 2.0, "eta": "60"}, r"^laws\[2\].eta: expected a number, got str$"),
        ({"family": "150", "beta": 2.0, "eta": [60]}, r"^laws\[2\].eta: expected a number, got list$"),
        ({"family": 150, "beta": 2.0, "eta": 60.0}, r"^laws\[2\].family: expected a string, got int$"),
        (
            {"family": "400", "beta": 2.0, "eta": 60.0},
            r"^laws\[2\].family: unknown family '400' \(expected 110, 150, 220_380\)$",
        ),
        ({"family": "150", "beta": -6, "eta": 60.0}, r"^laws\[2\].beta: shape must be positive, got -6.0$"),
        ({"family": "150", "beta": 2.0, "eta": 0}, r"^laws\[2\].eta: scale must be positive, got 0.0$"),
        ({"family": "150", "beta": 2.0, "eta": 60.0, "source": ["mle"]}, r"^laws\[2\].source: expected a string, got list$"),
    ],
)
def test_law_record_fields_must_be_json_numbers(record, named):
    with pytest.raises(ValueError, match=named):
        law_from_record(record, "laws[2]")
    # an integer is a JSON number
    assert law_from_record({"family": "150", "beta": 2, "eta": 60})[1] == WeibullLaw(2.0, 60.0)


def test_reference_laws_are_aging():
    for law in REFERENCE_LAWS.values():
        assert law.beta > 1
