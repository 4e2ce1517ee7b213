import io
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import single_family
from fleetlife.survival import UNBOUNDED, km_fit, write_curve_csv


def obs(duration, event=True):
    return (float(duration), event)


def km(observations):
    """km_fit on a table of (duration, event) rows."""
    return km_fit(
        single_family([d for d, _ in observations], [e for _, e in observations])
    )


def steps_of(curve):
    """(time, at risk, events) of every step of a curve."""
    return list(zip(curve.t.tolist(), curve.n_at_risk.tolist(), curve.d_events.tolist()))


def curve_columns(curve):
    """Every column of a curve as lists."""
    return steps_of(curve), curve.survival.tolist()


def product_limit_steps(observations):
    """(time, at risk, events, exact survival) per distinct event time.

    Direct evaluation of the product formula with events-first tie handling,
    counting each step from the raw rows.
    """
    value = Fraction(1)
    steps = []
    for ti in sorted({d for d, e in observations if e}):
        d = sum(1 for di, e in observations if e and di == ti)
        n = sum(1 for di, _ in observations if di >= ti)
        value *= Fraction(n - d, n)
        steps.append((ti, n, d, value))
    return steps


def product_limit_oracle(observations, t):
    """Exact survival at age t."""
    value = Fraction(1)
    for ti, _, _, survival in product_limit_steps(observations):
        if ti > t:
            break
        value = survival
    return value


class TestKmFit:
    def test_mixed_example(self):
        curve = km([obs(2), obs(3, event=False), obs(5)])
        assert steps_of(curve) == [(2, 3, 1), (5, 1, 1)]
        assert curve.survival[0] == pytest.approx(2 / 3, abs=1e-15)
        assert curve.survival[1] == 0.0

    def test_all_censored_constant_curve(self):
        curve = km([obs(4, event=False), obs(9, event=False)])
        assert steps_of(curve) == []
        assert curve.survival.size == 0
        assert curve.survival_at(100.0) == 1.0

    def test_all_events_steps(self):
        curve = km([obs(1), obs(2), obs(3), obs(4)])
        assert curve.survival.tolist() == [0.75, 0.5, 0.25, 0.0]
        assert curve.n_at_risk.tolist() == [4, 3, 2, 1]

    def test_tied_events_and_censorings(self):
        # censored at 5 still at risk for the event at 5
        curve = km([obs(5), obs(5, event=False), obs(7, event=False)])
        assert curve.n_at_risk[0] == 3
        assert curve.survival[0] == pytest.approx(2 / 3, abs=1e-15)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="no observations"):
            km([])

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError, match="invalid duration"):
            km([obs(-1.0)])


class TestSurvivalAt:
    def test_at_zero_is_one(self):
        curve = km([obs(2), obs(3, event=False), obs(5)])
        assert curve.survival_at(0) == 1.0

    def test_between_steps(self):
        curve = km([obs(2), obs(3, event=False), obs(5)])
        assert curve.survival_at(4) == pytest.approx(2 / 3, abs=1e-15)

    def test_right_continuous_at_event_time(self):
        curve = km([obs(2), obs(3, event=False), obs(5)])
        assert curve.survival_at(2) == pytest.approx(2 / 3, abs=1e-15)

    def test_beyond_last_event(self):
        curve = km([obs(2), obs(3, event=False), obs(5)])
        assert curve.survival_at(1000) == 0.0

    def test_negative_time_rejected(self):
        curve = km([obs(2)])
        with pytest.raises(ValueError, match="negative time"):
            curve.survival_at(-0.5)


class TestQuantile:
    def test_median_first_crossing(self):
        # single step dropping below one half at t=10
        curve = km([obs(10), obs(10), obs(10), obs(15, event=False)])
        assert curve.survival_at(10) == pytest.approx(0.25, abs=1e-15)
        assert curve.median() == 10

    def test_median_unbounded_when_curve_stays_high(self):
        # minimum survival 0.8 never reaches one half
        curve = km([obs(10)] + [obs(20, event=False)] * 4)
        assert curve.survival[-1] == pytest.approx(0.8, abs=1e-15)
        assert curve.median() == UNBOUNDED

    def test_median_exact_at_half(self):
        curve = km([obs(1), obs(2), obs(3), obs(4)])
        assert curve.quantile(0.5) == 2

    def test_q75(self):
        curve = km([obs(1), obs(2), obs(3), obs(4)])
        assert curve.quantile(0.75) == 3

    def test_invalid_level_rejected(self):
        curve = km([obs(1)])
        for q in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValueError, match="outside"):
                curve.quantile(q)


def test_curve_csv_export():
    curve = km([obs(2), obs(3, event=False), obs(5)])
    out = io.StringIO()
    write_curve_csv(curve, out)
    lines = out.getvalue().splitlines()
    assert lines[0] == "t,n_at_risk,d_events,survival"
    assert len(lines) == 3
    assert lines[1].split(",")[1:3] == ["3", "1"]


observation_lists = st.lists(
    st.tuples(st.integers(0, 8), st.booleans()),
    min_size=1,
    max_size=12,
).map(lambda raw: [(float(d), e) for d, e in raw])


# The survival column is a float running product, not the exact rational one.
SURVIVAL_TOLERANCE = 1e-12


@given(observation_lists)
@settings(max_examples=150)
def test_matches_product_limit_oracle(observations):
    curve = km(observations)
    for t, survival in zip(curve.t.tolist(), curve.survival.tolist()):
        exact = product_limit_oracle(observations, t)
        assert abs(survival - float(exact)) <= SURVIVAL_TOLERANCE
    for t in (0.0, 0.5, 3.3, 8.0, 50.0):
        exact = product_limit_oracle(observations, t)
        assert abs(curve.survival_at(t) - float(exact)) <= SURVIVAL_TOLERANCE


# Up to 500 rows on a coarse grid of ages: many rows share an age, and rows
# censored at an event time are common.
tied_observation_lists = st.lists(
    st.tuples(
        st.one_of(st.integers(0, 60).map(lambda k: k / 4), st.floats(0.0, 15.0)),
        st.booleans(),
    ),
    min_size=1,
    max_size=500,
)


@given(tied_observation_lists)
@settings(max_examples=60, deadline=None)
def test_steps_match_exact_product_limit(observations):
    curve = km(observations)
    steps = product_limit_steps(observations)
    assert steps_of(curve) == [(t, n, d) for t, n, d, _ in steps]
    for survival, (_, _, _, exact) in zip(curve.survival.tolist(), steps):
        assert abs(survival - float(exact)) <= SURVIVAL_TOLERANCE


@given(observation_lists)
@settings(max_examples=80)
def test_survival_monotone_non_increasing(observations):
    curve = km(observations)
    grid = [i * 0.25 for i in range(50)]
    values = [curve.survival_at(t) for t in grid]
    assert all(b <= a for a, b in zip(values, values[1:]))
    assert all(0.0 <= v <= 1.0 for v in values)


@given(observation_lists, st.randoms(use_true_random=False))
@settings(max_examples=80)
def test_permutation_invariance(observations, rnd):
    shuffled = list(observations)
    rnd.shuffle(shuffled)
    assert curve_columns(km(shuffled)) == curve_columns(km(observations))


@given(observation_lists)
@settings(max_examples=80)
def test_trailing_censoring_only_touches_at_risk_bookkeeping(observations):
    # Appending a censored observation beyond the largest event time creates
    # no new step and changes no event counts; it joins the at-risk set at
    # every step (so each n_i grows by one, which the product formula then
    # reflects, as the oracle-equivalence test confirms on the refit).
    curve = km(observations)
    extended = observations + [obs(max(d for d, _ in observations) + 5.0, False)]
    curve2 = km(extended)
    assert curve2.t.tolist() == curve.t.tolist()
    assert curve2.d_events.tolist() == curve.d_events.tolist()
    assert curve2.n_at_risk.tolist() == (curve.n_at_risk + 1).tolist()
    assert (curve2.survival >= curve.survival).all()
