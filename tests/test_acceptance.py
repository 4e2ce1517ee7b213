"""End-to-end acceptance suite.

One test per release criterion, each at its stated tolerance. The summary
section printed at the end of the pytest run shows one PASS/FAIL line per
criterion. The statistical criteria use frozen seeds; the fitting-recovery
tolerances were pinned by running the sampling oracle ahead of the build.
"""

import dataclasses
import json
import math
from datetime import date
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from conftest import fleet_of, single_family
from fleetlife.fleet import (
    SyntheticFleetSpec,
    VoltageClass,
    generate_synthetic_fleet,
)
from fleetlife.health import threshold_age
from fleetlife.scenarios import builtin_scenario
from fleetlife.simulate import Constrained, Unconstrained, run_scenario
from fleetlife.survival import km_fit
from fleetlife.weibull import (
    REFERENCE_LAWS,
    WeibullLaw,
    fit_weibull_mle,
    fit_weibull_rank_regression,
)
from reference_laws import cdf, survival

LAW_110 = REFERENCE_LAWS[VoltageClass.V110]
ALL_LAWS = tuple(REFERENCE_LAWS.values())

START = date(2021, 7, 1)
JOBS = 4


# ---------------------------------------------------------------------------
# Shared fleets and simulation runs (built once, reused across criteria)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def wave_fleet():
    # 1000 assets commissioned within a five-year band: a concentrated
    # replacement wave that makes strategy differences visible at desk scale
    spec = SyntheticFleetSpec(
        sizes={
            VoltageClass.V110: 400,
            VoltageClass.V150: 400,
            VoltageClass.V220_380: 200,
        },
        commission_years=(1982, 1986),
        seed=11,
    )
    return generate_synthetic_fleet(spec)


def _strategy_run(fleet, strategy, resources, replications=20, horizon=60):
    scenario = builtin_scenario(strategy, "unconstrained", replications=replications, master_seed=99)
    scenario = dataclasses.replace(
        scenario, start_date=START, horizon_years=horizon, resources=resources
    )
    return run_scenario(fleet, scenario, jobs=JOBS)


@pytest.fixture(scope="module")
def unconstrained_runs(wave_fleet):
    return {
        "time-based": _strategy_run(wave_fleet, "time-based", Unconstrained()),
        "condition-based": _strategy_run(wave_fleet, "condition-based", Unconstrained()),
    }


@pytest.fixture(scope="module")
def constrained_runs(wave_fleet):
    # 40 workers with few plannable hours each: the pool binds hard, which
    # the end-of-horizon backlog asserts below
    pool = Constrained(fte_count=40, hours_per_fte_per_year=250.0)
    return {
        "time-based": _strategy_run(wave_fleet, "time-based", pool),
        "condition-based": _strategy_run(wave_fleet, "condition-based", pool),
    }


# ---------------------------------------------------------------------------
# Criteria
# ---------------------------------------------------------------------------


def test_criterion_1_median_consistency():
    """1: fitted 110 kV law median stays within 1.1 years of the observed 61"""
    median = WeibullLaw(beta=6.67, eta=63.79).median()
    assert 59.9 <= median <= 61.0


def test_criterion_2_km_matches_product_formula_oracle():
    """2: estimator equals brute-force product formula on 1000 random censored datasets"""
    rng = np.random.default_rng(20250601)
    for _ in range(1000):
        n = int(rng.integers(1, 13))
        durations = rng.integers(0, 9, size=n).astype(float)
        events = rng.random(n) < 0.6
        observations = list(zip(durations.tolist(), events.tolist()))
        curve = km_fit(single_family(durations, events))
        event_times = sorted({t for t, e in observations if e})
        assert curve.t.tolist() == event_times
        for step, survival in zip(curve.t.tolist(), curve.survival.tolist()):
            value = Fraction(1)
            for t in event_times:
                if t > step:
                    break
                d = sum(1 for ti, e in observations if e and ti == t)
                at_risk = sum(1 for ti, _ in observations if ti >= t)
                value *= Fraction(at_risk - d, at_risk)
            assert abs(survival - float(value)) <= 1e-12


def test_criterion_3_censored_mle_recovery():
    """3: censored fits recover (6.5, 70) within 5%/2% in at least 19 of 20 seeded runs"""
    true_law = WeibullLaw(beta=6.5, eta=70.0)
    hits = 0
    for child in np.random.SeedSequence(1).spawn(20):
        rng = np.random.default_rng(child)
        lifetimes = true_law.sample(5000, rng)
        observations = single_family(np.minimum(lifetimes, 60.0), lifetimes <= 60.0)
        law, diagnostics = fit_weibull_mle(observations, km_fit(observations))
        assert diagnostics.converged
        if (
            abs(law.beta - true_law.beta) / true_law.beta <= 0.05
            and abs(law.eta - true_law.eta) / true_law.eta <= 0.02
        ):
            hits += 1
    assert hits >= 19


def test_criterion_4_rank_regression_self_consistency():
    """4: rank regression on an exact curve returns the generating parameters to 1e-6"""
    from fleetlife.survival import SurvivalCurve

    times = np.linspace(25.0, 95.0, 10)
    values = np.array([survival(LAW_110, float(t)) for t in times])
    curve = SurvivalCurve(times, 1000 - np.arange(10), np.ones(10, dtype=np.int64), values)
    law = fit_weibull_rank_regression(curve)
    assert abs(law.beta - 6.67) / 6.67 <= 1e-6
    assert abs(law.eta - 63.79) / 63.79 <= 1e-6


def test_criterion_5_conditional_probability_identities():
    """5: next-window probability identities and monotonicity hold on a dense grid"""
    for law in ALL_LAWS:
        for window in (1.0, 3.0, 7.0):
            assert law.conditional_failure_probability(0.0, window) == cdf(law, window)

    for law in ALL_LAWS:
        ages = np.linspace(0.0, 2.5 * law.eta, 50)
        windows = np.linspace(0.1, 10.0, 50)
        previous_column = None
        for window in windows:
            column = []
            for t in ages:
                stable = law.conditional_failure_probability(float(t), float(window))
                s_now = survival(law, float(t))
                s_later = survival(law, float(t) + float(window))
                if s_later >= 1e-300:
                    naive = 1.0 - s_later / s_now
                    assert abs(stable - naive) <= 1e-12
                column.append(stable)
            assert all(b >= a for a, b in zip(column, column[1:]))
            if previous_column is not None:
                assert all(b >= a for a, b in zip(previous_column, column))
            previous_column = column


def test_criterion_6_threshold_round_trip():
    """6: inverting the next-window probability reproduces the level to 1e-6"""
    for law in ALL_LAWS:
        for window in (3.0, 7.0):
            for level in (0.2, 0.5, 0.8):
                age = threshold_age(law, window, level)
                back = law.conditional_failure_probability(age, window)
                assert abs(back - level) <= 1e-6


def test_criterion_7_analytic_replacement_schedule():
    """7: with failures off, a 45-year policy replaces every asset exactly at years 45 and 90"""
    sizes = {110: 400, 150: 300, 220: 150, 380: 150}
    fleet = fleet_of(
        [(f"{kv}-{i:05d}", kv, START) for kv, count in sizes.items() for i in range(count)]
    )
    scenario = builtin_scenario("time-based", "unconstrained", replications=1, master_seed=3)
    scenario = dataclasses.replace(
        scenario, start_date=START, failures_enabled=False, horizon_years=100
    )
    series = run_scenario(fleet, scenario).replications[0]

    for year, count in enumerate(series.replacements):
        assert count == (1000 if year in (45, 90) else 0)
    assert sum(series.failures) == 0
    per_cycle = (
        400 * Decimal("43211")
        + 300 * Decimal("45044")
        + 150 * Decimal("50000")
        + 150 * Decimal("50000")
    )
    total_capex = sum(series.capex)
    assert total_capex.quantize(Decimal("0.01")) == (2 * per_cycle).quantize(Decimal("0.01"))
    assert series.capex[45] == per_cycle
    assert series.capex[90] == per_cycle


def test_criterion_8_determinism_and_capacity_monotonicity(wave_fleet):
    """8: reports are byte-identical across parallel jobs; more workers never leave more backlog"""
    # horizon 45 keeps the comparison within the fleet's first replacement
    # wave: a faster pool then strictly drains the same arrivals, whereas a
    # longer horizon would let it also pull the second wave forward
    scenario = builtin_scenario("time-based", "unconstrained", replications=2, master_seed=13)
    scenario = dataclasses.replace(
        scenario,
        start_date=START,
        horizon_years=45,
        resources=Constrained(fte_count=40, hours_per_fte_per_year=250.0),
    )
    serial = run_scenario(wave_fleet, scenario, jobs=1)
    parallel = run_scenario(wave_fleet, scenario, jobs=4)
    serial_bytes = json.dumps(serial.to_json_dict(), sort_keys=True).encode()
    parallel_bytes = json.dumps(parallel.to_json_dict(), sort_keys=True).encode()
    assert serial_bytes == parallel_bytes

    end_backlogs = []
    pools = [
        Constrained(fte_count=0, hours_per_fte_per_year=250.0),
        Constrained(fte_count=20, hours_per_fte_per_year=250.0),
        Constrained(fte_count=40, hours_per_fte_per_year=250.0),
        Constrained(fte_count=60, hours_per_fte_per_year=250.0),
        Unconstrained(),
    ]
    for pool in pools:
        run = run_scenario(
            wave_fleet, dataclasses.replace(scenario, resources=pool), jobs=JOBS
        )
        end_backlogs.append(run.aggregates["backlog_hours"].mean[-1])
    assert all(
        later <= earlier + 1e-9 for earlier, later in zip(end_backlogs, end_backlogs[1:])
    )
    assert end_backlogs[0] > 0.0
    assert end_backlogs[-1] == 0.0


def test_criterion_9_replacements_dominate_totex(unconstrained_runs):
    """9: replacement spending exceeds half of cumulative TOTEX in every replication"""
    for name, report in unconstrained_runs.items():
        for series in report.replications:
            capex = sum(series.capex)
            totex = sum(series.totex)
            assert totex > 0
            assert capex / totex > Decimal("0.5"), name


def test_criterion_10_strategy_comparison(unconstrained_runs, constrained_runs):
    """10: condition triggers flatten the replacement peak; a binding pool erases the cost gap"""
    peak_time = max(unconstrained_runs["time-based"].aggregates["replacements"].mean)
    peak_condition = max(
        unconstrained_runs["condition-based"].aggregates["replacements"].mean
    )
    assert peak_condition < peak_time

    def cumulative_totex(report):
        return sum(report.aggregates["totex"].mean)

    gap_unconstrained = abs(
        cumulative_totex(unconstrained_runs["time-based"])
        - cumulative_totex(unconstrained_runs["condition-based"])
    )
    gap_constrained = abs(
        cumulative_totex(constrained_runs["time-based"])
        - cumulative_totex(constrained_runs["condition-based"])
    )
    # the pool must actually bind for the comparison to mean anything
    for report in constrained_runs.values():
        assert report.aggregates["backlog_hours"].mean[-1] > 0.0
    assert gap_constrained < gap_unconstrained
