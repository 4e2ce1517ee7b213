import dataclasses
import json
import math
import operator
from datetime import date
from fractions import Fraction
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st
from scipy import stats

from conftest import fleet_of
from fleetlife.fleet import (
    AssetTable,
    SyntheticFleetSpec,
    VoltageClass,
    generate_synthetic_fleet,
)
from fleetlife.scenarios import builtin_scenario, demo_catalog
from fleetlife.simulate import (
    HOURS_PER_MONTH,
    VALID_TICKS,
    ActivityCatalog,
    ActivityKind,
    ActivitySpec,
    CatalogError,
    ConditionBased,
    ConstantRate,
    Constrained,
    FamilyPolicy,
    KpiSeries,
    LognormalRate,
    PeriodicInspections,
    Policy,
    Scenario,
    TimeBased,
    Unconstrained,
    aggregate_replications,
    compare_scenarios,
    run_scenario,
    _FIRST_GENERATIONS,
    _INSPECTION,
    _Engine,
    _asset_keys,
    _philox4x64,
    _stream_draws,
)
from fleetlife.generations import UNITS_PER_DAY, UNITS_PER_MONTH, _greedy_walk, due_before
from fleetlife.reports import _percentile
from fleetlife.weibull import REFERENCE_LAWS, WeibullLaw
from reference_engine import (
    _CORRECTIVE,
    _PLANNED,
    ActivityRequest,
    PRIORITY,
    LedgerEngine,
    ReferenceQueue,
    allocate_resources,
    inspection_due,
    trigger_reached,
)
from reference_engine import pending as reference_pending

START = date(2020, 1, 1)


def simple_policy(trigger=None, inspections=None):
    fam = FamilyPolicy(
        replacement=trigger or TimeBased(age_years=45.0), inspections=inspections
    )
    return Policy(families={vc: fam for vc in VoltageClass})


def scenario(fleet_policy=None, **overrides) -> Scenario:
    defaults = dict(
        name="test",
        laws=dict(REFERENCE_LAWS),
        policy=fleet_policy or simple_policy(),
        catalog=demo_catalog(),
        resources=Unconstrained(),
        horizon_years=100,
        tick_months=1,
        start_date=START,
        failures_enabled=False,
        degradation_rates=ConstantRate(),
        replications=1,
        master_seed=7,
    )
    defaults.update(overrides)
    return Scenario(**defaults)


def asset(asset_id="110-00000", kv=110, commissioned=START):
    """One in-service asset row for fleet_of."""
    return (asset_id, kv, commissioned)


class TestActivitySpec:
    def test_demo_catalog_total_costs(self):
        catalog = demo_catalog()
        assert catalog.replacement(110).total_cost == Decimal("43211")
        assert catalog.replacement(150).total_cost == Decimal("45044")
        assert catalog.replacement(220).total_cost == Decimal("50000")
        assert catalog.replacement(380).total_cost == Decimal("50000")
        assert catalog.inspection(110, 3).total_cost == Decimal("41.624")
        assert catalog.inspection(150, 12).total_cost == Decimal("229.99")

    def test_person_hours(self):
        assert demo_catalog().replacement(110).person_hours == 400.0

    def test_validation(self):
        with pytest.raises(ValueError, match="negative duration"):
            ActivitySpec("x", -1.0, 1, Decimal(0), Decimal(0))
        with pytest.raises(ValueError, match="required_fte"):
            ActivitySpec("x", 1.0, 0, Decimal(0), Decimal(0))

    def test_catalog_gap_errors_name_kind_and_voltage(self):
        catalog = demo_catalog()
        with pytest.raises(CatalogError, match="planned_replacement .*975 kV"):
            catalog.replacement(975)
        with pytest.raises(CatalogError, match="inspection .*220 kV .*3-month"):
            catalog.inspection(220, 3)

    def test_corrective_falls_back_to_planned(self):
        catalog = demo_catalog()
        assert catalog.replacement(110, corrective=True) == catalog.replacement(110)


def commissioned_aged(years):
    """Commission date of an asset about `years` old at START."""
    return date.fromordinal(START.toordinal() - round(years * 365.25))


def traced(fleet, sc):
    """A validated RecordingEngine run of replication 0.

    An open pool's run has no ticks to trace, so an `Unconstrained`
    scenario is traced under a pool that never binds, once
    `open_and_walked` has checked that both give the same run.
    """
    if isinstance(sc.resources, Unconstrained):
        return open_and_walked(fleet, sc)
    engine = RecordingEngine(fleet, sc)
    engine.run(0)
    return engine


# a budget of about 8e10 person-hours a month: no tick can exhaust it
NEVER_BINDS = Constrained(fte_count=1, hours_per_fte_per_year=1e12)
# no worker, so no request ever executes
EMPTY_POOL = Constrained(fte_count=0, hours_per_fte_per_year=1600.0)


def open_and_walked(fleet, sc):
    """Replication 0 of an open-pool scenario, run generation by generation
    as `Unconstrained` runs, and tick by tick (traced) under a pool that
    never binds.

    Asserts that both runs give the same KPIs and execute as many requests,
    and that the open pool examined exactly what it executed or dropped.
    Returns the traced engine.
    """
    assert isinstance(sc.resources, Unconstrained)
    opened = _Engine(fleet, sc)
    walked = RecordingEngine(fleet, dataclasses.replace(sc, resources=NEVER_BINDS))
    assert opened.run(0) == walked.run(0)
    assert opened.capacity is None and walked.capacity is not None
    assert opened.executed == walked.executed
    assert opened.raised == walked.raised
    assert opened.dropped == walked.dropped
    assert opened.examined == opened.executed + opened.dropped
    return walked


def pending(engine):
    """Each class's requests pending at the engine's last tick, one id (an
    asset, or a cadence entry for an inspection) per request."""
    return [reference_pending(engine, cls, engine.n_ticks - 1).tolist() for cls in range(3)]


def in_service(engine):
    """Whether each asset is in service at the engine's last tick."""
    return engine.ticks[0] >= engine.n_ticks


def pool(per_tick, tick_months=1):
    """One FTE offering `per_tick` person-hours a tick."""
    return Constrained(fte_count=1, hours_per_fte_per_year=per_tick * 12 / tick_months)


# a near-step hazard at 59 years: a 60-year-old asset fails in the first
# tick with certainty, and young assets never do
STEP_LAWS = {vc: WeibullLaw(beta=6000.0, eta=59.0) for vc in VoltageClass}
SIXTY = date(1960, 1, 1)


class TestEvaluateTriggers:
    # the engine's triggers on one new asset, traced tick by tick

    def test_time_based_due_at_trigger_age(self):
        # the asset is exactly 45 years old at tick 540
        engine = traced(fleet_of([asset()]), scenario(horizon_years=46))
        assert [k for k, due in enumerate(engine.planned) if due] == [540]

    def test_time_based_not_due_before(self):
        # up to tick 539, at 44 years 11 months, nothing is raised
        engine = traced(fleet_of([asset()]), scenario(horizon_years=46))
        assert engine.planned[:540] == [[]] * 540
        assert engine.completed[:540] == [[]] * 540

    def test_condition_based_uses_apparent_age(self):
        # at rate 1.25 the apparent age reaches 50 at a real age of 40
        sc = scenario(
            fleet_policy=simple_policy(ConditionBased(50.0)),
            degradation_rates=ConstantRate(1.25),
            horizon_years=60,
        )
        series = run_scenario(fleet_of([asset()]), sc).replications[0]
        assert [y for y, c in enumerate(series.replacements) if c] == [40]

    @pytest.mark.parametrize("fte", [None, 1])
    def test_condition_based_uses_each_generations_rate(self, fte):
        # A new asset replaced at an apparent age of 2 years: generation g,
        # at rate r_g, is due once its age in months m has m / 12 * r_g >= 2,
        # and is replaced in the tick it falls due.
        resources = Unconstrained() if fte is None else pool(400.0)
        sc = scenario(
            fleet_policy=simple_policy(ConditionBased(2.0)),
            degradation_rates=LognormalRate(0.0, 0.3),
            resources=resources,
            horizon_years=12,
        )
        engine = traced(fleet_of([asset()]), sc)
        _, z = _stream_draws(_asset_keys([asset()[0].encode()]), sc.master_seed, 0, np.arange(8))
        rates = sc.degradation_rates.from_normals(z[:, 0]).tolist()
        expected, tick = [], 0
        for rate in rates:
            tick += next(m for m in range(1000) if m / 12.0 * rate >= 2.0)
            if tick >= len(engine.planned):
                break
            expected.append(tick)
        # more replacements than the generations drawn at the start: the trigger
        # ticks of the rows drawn when the tables double are checked too
        assert len(set(rates)) == len(rates) and len(expected) > _FIRST_GENERATIONS
        assert [k for k, due in enumerate(engine.planned) if due] == expected

    def test_failed_asset_requests_corrective_only(self):
        # The asset fails in the first tick, when its planned replacement and
        # its inspections are due by age; with no pool to repair it, the
        # corrective replacement is the only request it ever raises.
        plan = PeriodicInspections(start_age_years=25.0, interval_months=(3, 6, 12))
        sc = scenario(
            fleet_policy=simple_policy(TimeBased(45.0), plan),
            laws=STEP_LAWS,
            failures_enabled=True,
            resources=EMPTY_POOL,
            horizon_years=1,
        )
        engine = traced(fleet_of([asset(commissioned=SIXTY)]), sc)
        assert engine.series.failures == [1]
        assert engine.planned == [[]] * 12
        assert [got for _, _, got in engine.inspection_log] == [[]] * 12
        assert [len(ids) for ids in pending(engine)] == [1, 0, 0]
        assert engine.series.backlog_hours == [400.0]

    def raised_from_25(self, intervals):
        """Inspections raised per tick for cadences starting at age 25."""
        sc = cadence_scenario(1, intervals, start_age=25.0, trigger_age=45.0, horizon=26)
        return [got for _, _, got in traced(fleet_of([asset()]), sc).inspection_log]

    def test_inspections_below_start_age(self):
        assert self.raised_from_25((3, 6, 12))[:300] == [[]] * 300

    def test_inspections_at_eligibility_crossing(self):
        assert self.raised_from_25((3, 6, 12))[300] == [(0, "i3"), (0, "i6"), (0, "i12")]

    def test_inspection_cadence_phase(self):
        due = [got != [] for got in self.raised_from_25((3,))[300:307]]
        assert due == [True, False, False, True, False, False, True]


class TestSampleFailure:
    # the engine's failure step

    def test_disabled_switch(self):
        sc = scenario(laws=STEP_LAWS, failures_enabled=False, horizon_years=1)
        engine = traced(fleet_of([asset(commissioned=SIXTY)]), sc)
        assert engine.series.failures == [0]
        assert in_service(engine).all()

    def test_draw_consumes_one_uniform(self):
        # Each asset takes one uniform for its first generation, from its
        # own stream, and fails in the tick that holds the age inverted from
        # it. A one-month half-life fails most assets within the year.
        law = WeibullLaw(beta=1.0, eta=(1 / 12) / math.log(2))
        ids = ["110-00000", "110-00001", "110-00002"]
        sc = scenario(
            laws={vc: law for vc in VoltageClass},
            failures_enabled=True,
            resources=EMPTY_POOL,
            horizon_years=1,
        )
        engine = traced(fleet_of([asset(i) for i in ids]), sc)
        u, _ = _stream_draws(_asset_keys([i.encode() for i in ids]), sc.master_seed, 0, np.array([0]))
        start, tick = 0.0, 1 / 12
        for i in range(len(ids)):
            e = -math.log1p(-float(u[0, i]))
            age = law.eta * ((start / law.eta) ** law.beta + e) ** (1 / law.beta)
            fails_at = math.floor((age - start) / tick)
            assert fails_at < 12, "a fixed seed fails each asset within the year"
            assert not in_service(engine)[i]
            assert engine.ticks[0][i] == fails_at
            assert engine.failed[fails_at].count(i) == 1
        assert sum(engine.series.failures) == len(ids)


class TestAllocateResources:
    # One tick's allocation in the engine. Assets are indexed in asset_id
    # order; `completed` lists each tick's (class, asset) executions in order.
    # Replacements take 400 person-hours, the annual inspection 2.66.

    def test_unconstrained_executes_all(self):
        fleet = fleet_of([asset("a"), asset("b"), asset("c")])
        engine = traced(fleet, annual_scenario(resources=Unconstrained()))
        assert engine.completed[0] == [(_INSPECTION, 0), (_INSPECTION, 1), (_INSPECTION, 2)]
        assert engine.completed[2] == [(_PLANNED, 0), (_PLANNED, 1), (_PLANNED, 2)]
        assert engine.series.backlog_hours == [0.0] * 4

    def test_replacement_fills_capacity_inspections_carry(self):
        fleet = fleet_of([
            asset("a1"), asset("a2", commissioned=commissioned_aged(2.5)), asset("a3")
        ])
        sc = annual_scenario(resources=pool(400.0, 12), horizon_years=1)
        engine = traced(fleet, sc)
        assert engine.completed == [[(_PLANNED, 1)]]
        assert pending(engine)[_INSPECTION] == [0, 2]
        assert engine.series.backlog_hours == [2 * 2.66]

    def test_priority_order_corrective_first(self):
        # a1 and a3 (110 kV) are due for planned replacement at tick 0, and
        # one fits a tick. a2 (150 kV, never planned) fails at tick 1; its
        # corrective replacement runs before a3's older planned one.
        policy = Policy(families={
            VoltageClass.V110: FamilyPolicy(replacement=TimeBased(5.0)),
            VoltageClass.V150: FamilyPolicy(replacement=TimeBased(99.0)),
        })
        fleet = fleet_of([
            asset("a1", commissioned=commissioned_aged(10.0)),
            asset("a2", kv=150, commissioned=commissioned_aged(58.876)),
            asset("a3", commissioned=commissioned_aged(10.0)),
        ])
        sc = scenario(
            fleet_policy=policy,
            laws={vc: WeibullLaw(beta=60000.0, eta=59.0) for vc in VoltageClass},
            failures_enabled=True,
            resources=pool(400.0),
            horizon_years=1,
        )
        engine = traced(fleet, sc)
        assert engine.completed[:3] == [[(_PLANNED, 0)], [(_CORRECTIVE, 1)], [(_PLANNED, 2)]]
        assert engine.failed[:2] == [[], [1]]

    def test_fifo_then_asset_id_tie_break(self):
        # Both are due at tick 0 and one replacement fits a yearly tick. a
        # (150 kV) goes first although listed second, so the capex of year 0
        # is its replacement's.
        fleet = fleet_of([
            asset("b", commissioned=commissioned_aged(10.0)),
            asset("a", kv=150, commissioned=commissioned_aged(10.0)),
        ])
        sc = annual_scenario(
            fleet_policy=simple_policy(TimeBased(5.0)), resources=pool(400.0, 12), horizon_years=2
        )
        series = run_scenario(fleet, sc).replications[0]
        assert series.capex == [Decimal("45044"), Decimal("43211")]

    def test_earlier_request_wins_over_id(self):
        # y and z are due at tick 0 and y executes; a falls due at tick 1,
        # where z, carried from tick 0, goes before it
        fleet = fleet_of([
            asset("a", commissioned=commissioned_aged(5.0 - 1 / 24)),
            asset("y", commissioned=commissioned_aged(5.1)),
            asset("z", commissioned=commissioned_aged(5.1)),
        ])
        sc = scenario(
            fleet_policy=simple_policy(TimeBased(5.0)), resources=pool(400.0), horizon_years=1
        )
        engine = traced(fleet, sc)
        assert engine.planned[:2] == [[1, 2], [0]]
        assert engine.completed[:3] == [[(_PLANNED, 1)], [(_PLANNED, 2)], [(_PLANNED, 0)]]

    def test_leftover_capacity_flows_to_lower_priority(self):
        # a's replacement leaves 3 person-hours, enough for b's inspection;
        # a's own inspection is stale once a is replaced
        fleet = fleet_of([asset("a", commissioned=commissioned_aged(2.5)), asset("b")])
        sc = annual_scenario(resources=pool(403.0, 12), horizon_years=1)
        engine = traced(fleet, sc)
        assert engine.completed == [[(_PLANNED, 0), (_INSPECTION, 1)]]
        assert engine.series.backlog_hours == [0.0]

    def test_zero_capacity(self):
        sc = annual_scenario(resources=EMPTY_POOL, horizon_years=1)
        engine = traced(fleet_of([asset()]), sc)
        assert engine.completed == [[]]
        assert engine.series.backlog_hours == [2.66]


class TestApplyCompletion:
    # what the engine books when an activity executes

    def test_corrective_replacement_books_capex(self):
        # Both 150 kV assets fail at tick 0 and one replacement fits a tick:
        # b waits one tick, booking a month of unavailability, and each
        # replacement draws the asset's second degradation rate.
        fleet = fleet_of([
            asset("a", kv=150, commissioned=SIXTY), asset("b", kv=150, commissioned=SIXTY)
        ])
        sc = scenario(
            laws=STEP_LAWS,
            failures_enabled=True,
            degradation_rates=LognormalRate(0.0, 0.2),
            resources=pool(400.0),
            horizon_years=1,
        )
        engine = traced(fleet, sc)
        series = engine.series
        assert series.capex == [2 * Decimal("45044")]
        assert series.replacements == [2]
        assert series.unavailability_hours == [40.0 + HOURS_PER_MONTH + 40.0]
        assert engine.completed[:2] == [[(_CORRECTIVE, 0)], [(_CORRECTIVE, 1)]]
        assert in_service(engine).all()
        assert engine.generation.tolist() == [1, 1]
        # The new generations start at ticks 0 and 1. Their failures (near
        # age 59) and 45-year triggers lie beyond the horizon, which the
        # tables hold as n_ticks = 12 ticks from the origin; a failure tick
        # counts one more, as a new generation is first at risk a tick late.
        assert engine.ticks[0].tolist() == [0 + 1 + 12, 1 + 1 + 12]
        assert engine.ticks[1].tolist() == [0 + 12, 1 + 12]

    def test_same_tick_corrective_has_no_gap(self):
        sc = scenario(laws=STEP_LAWS, failures_enabled=True, horizon_years=1)
        series = run_scenario(fleet_of([asset(commissioned=SIXTY)]), sc).replications[0]
        assert series.failures == [1]
        assert series.unavailability_hours == [40.0]

    def test_inspection_books_opex_and_hours(self):
        # quarterly ticks, the quarterly (routine) inspection due at each
        plan = PeriodicInspections(start_age_years=0.0, interval_months=(3,))
        sc = scenario(
            fleet_policy=simple_policy(TimeBased(45.0), plan), tick_months=3, horizon_years=1
        )
        engine = traced(fleet_of([asset()]), sc)
        series = engine.series
        assert series.opex == [4 * Decimal("41.624")]
        assert series.inspection_hours == [4 * 0.5]
        assert series.unavailability_hours == [4 * 0.5]
        assert series.capex == [Decimal(0)]
        # generation 0 is due next at tick 4, a quarter past the horizon
        assert engine.generation.tolist() == [0]
        assert engine.oldest.tolist() == [4]


class TestRunScenario:
    def test_single_asset_analytic_schedule(self):
        report = run_scenario(fleet_of([asset()]), scenario())
        series = report.replications[0]
        years = [y for y, c in enumerate(series.replacements) if c]
        assert years == [45, 90]
        assert sum(series.capex) == Decimal("86422")

    def test_fractional_initial_age_schedule(self):
        # commissioned 10.3 years before start: first replacement in the
        # month age crosses 45, i.e. year floor((45 - 10.3) * 12)/12
        commissioned = date(2009, 10, 11)
        initial_months = (START - commissioned).days / 365.25 * 12.0
        report = run_scenario(
            fleet_of([asset(commissioned=commissioned)]), scenario(horizon_years=60)
        )
        series = report.replications[0]
        first = [y for y, c in enumerate(series.replacements) if c][0]
        expected_tick = math.ceil(45 * 12.0 - initial_months)
        assert first == expected_tick // 12

    def test_zero_fte_executes_nothing(self):
        report = run_scenario(
            fleet_of([asset()]),
            scenario(resources=Constrained(fte_count=0, hours_per_fte_per_year=1600.0)),
        )
        series = report.replications[0]
        assert sum(series.replacements) == 0
        assert sum(series.capex) == Decimal(0)
        backlog = series.backlog_hours
        assert all(b2 >= b1 for b1, b2 in zip(backlog, backlog[1:]))
        assert backlog[-1] > 0

    def test_determinism_repeated_runs(self):
        fleet = generate_synthetic_fleet(
            SyntheticFleetSpec(
                sizes={VoltageClass.V110: 30, VoltageClass.V150: 20},
                commission_years=(1980, 2010),
                seed=3,
            )
        )
        sc = scenario(failures_enabled=True, replications=2, horizon_years=40)
        a = run_scenario(fleet, sc)
        b = run_scenario(fleet, sc)
        assert json.dumps(a.to_json_dict(), sort_keys=True) == json.dumps(
            b.to_json_dict(), sort_keys=True
        )

    def test_parallel_jobs_identical(self):
        # five replications over one, two and three workers, on an open
        # pool and on a binding one that carries work across year ends
        fleet = generate_synthetic_fleet(
            SyntheticFleetSpec(
                sizes={VoltageClass.V110: 40, VoltageClass.V150: 40, VoltageClass.V220_380: 20},
                commission_years=(1965, 2000),
                seed=23,
            )
        )
        for resources in (Unconstrained(), Constrained(fte_count=10, hours_per_fte_per_year=500.0)):
            sc = dataclasses.replace(
                builtin_scenario("time-based", replications=5, master_seed=5),
                horizon_years=12,
                start_date=date(2021, 7, 1),
                resources=resources,
            )
            serial = run_scenario(fleet, sc, jobs=1).to_json_dict()
            carried = [any(b > 0 for b in r["backlog_hours"]) for r in serial["replications"]]
            assert carried == [isinstance(resources, Constrained)] * 5
            for jobs in (2, 3):
                assert run_scenario(fleet, sc, jobs=jobs).to_json_dict() == serial

    def test_pool_starts_no_more_workers_than_replications(self, monkeypatch):
        # the executor starts all its workers at the first submit, so a pool
        # of 8 for 2 replications would fork 6 that never get one
        import concurrent.futures

        asked = []

        class Recording(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, max_workers=None, *args, **kwargs):
                asked.append(max_workers)
                super().__init__(min(max_workers, 2), *args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
        fleet = fleet_of([asset(f"110-{i:05d}", commissioned=date(1970 + i, 1, 1)) for i in range(4)])
        sc = scenario(failures_enabled=True, replications=2, horizon_years=20)
        assert run_scenario(fleet, sc, jobs=8).to_json_dict() == run_scenario(fleet, sc).to_json_dict()
        assert asked == [2]

    def test_corrective_gap_books_one_tick_of_unavailability(self):
        # a near-step hazard at 59 years makes both 60-year-old assets fail
        # in the first tick with certainty, while their replacements stay
        # safely young; capacity fits one replacement per tick, so the second
        # asset waits a month before its corrective work
        step_law = WeibullLaw(beta=6000.0, eta=59.0)
        commissioned = date(1960, 1, 1)
        fleet = fleet_of([
            asset("110-00000", commissioned=commissioned),
            asset("110-00001", commissioned=commissioned),
        ])
        sc = scenario(
            laws={vc: step_law for vc in VoltageClass},
            failures_enabled=True,
            resources=Constrained(fte_count=10, hours_per_fte_per_year=480.0),
            horizon_years=1,
        )
        report = run_scenario(fleet, sc)
        series = report.replications[0]
        assert series.failures[0] == 2
        assert series.replacements[0] == 2
        assert series.unavailability_hours[0] == pytest.approx(40.0 + 730.5 + 40.0)

    def test_ledger_identity_totex(self):
        fleet = generate_synthetic_fleet(
            SyntheticFleetSpec(
                sizes={VoltageClass.V110: 40}, commission_years=(1980, 2019), seed=9
            )
        )
        sc = scenario(
            failures_enabled=True,
            horizon_years=50,
            fleet_policy=simple_policy(
                TimeBased(45.0),
                PeriodicInspections(start_age_years=25.0, interval_months=(3, 6, 12)),
            ),
        )
        series = run_scenario(fleet, sc).replications[0]
        totex = [c + o for c, o in zip(series.capex, series.opex)]
        assert series.columns()["totex"] == totex
        assert sum(series.opex) > 0

    def test_person_hour_conservation_under_constraint(self):
        # replacements only, all demanding 400 person-hours
        fleet = fleet_of([asset(f"110-{i:05d}", commissioned=date(1975, 1, 1)) for i in range(40)])
        capacity_per_tick = Constrained(fte_count=10, hours_per_fte_per_year=960.0)
        assert capacity_per_tick.tick_capacity(1) == pytest.approx(800.0)
        sc = scenario(
            start_date=date(2020, 1, 1),
            resources=capacity_per_tick,
            horizon_years=5,
        )
        series = run_scenario(fleet, sc).replications[0]
        assert sum(series.replacements) == 40
        # two replacements fit per tick from the tick the fleet crosses 45
        initial_months = (date(2020, 1, 1) - date(1975, 1, 1)).days / 365.25 * 12.0
        first_due_tick = math.ceil(45 * 12.0 - initial_months)
        assert series.replacements[0] == 2 * (12 - first_due_tick)
        # conservation: executed person-hours never exceed offered capacity
        for year in range(len(series.replacements)):
            assert series.replacements[year] * 400.0 <= 800.0 * 12 + 1e-9

    def test_monotone_capacity_backlog(self):
        fleet = fleet_of([asset(f"110-{i:05d}", commissioned=date(1975, 1, 1)) for i in range(60)])
        ends = []
        for fte in (0, 5, 10, 20):
            sc = scenario(
                resources=Constrained(fte_count=fte, hours_per_fte_per_year=960.0)
                if fte
                else Constrained(fte_count=0, hours_per_fte_per_year=960.0),
                horizon_years=10,
            )
            series = run_scenario(fleet, sc).replications[0]
            ends.append(series.backlog_hours[-1])
        assert all(b >= a for a, b in zip(ends[1:], ends))

    def test_apparent_hazard_mode_changes_failures(self):
        fleet = fleet_of([asset(f"110-{i:05d}", commissioned=date(2000, 1, 1)) for i in range(50)])
        base = scenario(
            laws={vc: WeibullLaw(4.0, 45.0) for vc in VoltageClass},
            failures_enabled=True,
            degradation_rates=ConstantRate(2.0),
            horizon_years=20,
        )
        real = run_scenario(fleet, base).replications[0]
        apparent = run_scenario(
            fleet, dataclasses.replace(base, hazard_age="apparent")
        ).replications[0]
        assert sum(apparent.failures) > sum(real.failures)

    def test_catalog_gap_detected_at_validation(self):
        catalog = demo_catalog()
        del catalog.replacements[150]
        fleet = fleet_of([asset("x", kv=150)])
        with pytest.raises(CatalogError, match="planned_replacement .*150 kV"):
            _Engine(fleet, scenario(catalog=catalog))

    def test_missing_law_detected(self):
        laws = dict(REFERENCE_LAWS)
        del laws[VoltageClass.V150]
        with pytest.raises(ValueError, match="no reliability law .*150"):
            _Engine(fleet_of([asset("x", kv=150)]), scenario(laws=laws))

    def test_failed_fleet_rejected(self):
        failed = fleet_of([("x", 110, date(2000, 1, 1), date(2010, 1, 1))])
        with pytest.raises(ValueError, match="already failed"):
            _Engine(failed, scenario())

    def test_oversized_activity_rejected_when_constrained(self):
        sc = scenario(resources=Constrained(fte_count=1, hours_per_fte_per_year=1600.0))
        with pytest.raises(ValueError, match="never schedule"):
            _Engine(fleet_of([asset()]), sc)

    def test_interval_not_multiple_of_tick_rejected(self):
        plan = PeriodicInspections(start_age_years=25.0, interval_months=(3, 7))
        sc = scenario(fleet_policy=simple_policy(TimeBased(45.0), plan), tick_months=2)
        with pytest.raises(ValueError, match="not a multiple"):
            _Engine(fleet_of([asset()]), sc)

    @pytest.mark.parametrize(
        "fault, message",
        [
            ("catalog", "no planned_replacement activity for 150 kV"),
            ("oversized", "needs 400.0 person-hours but a full tick only provides"),
            ("interval", "inspection interval 3 months is not a multiple of the 2-month tick"),
        ],
    )
    def test_fault_is_reported_before_any_draw(self, monkeypatch, fault, message):
        # each check of the scenario against the fleet runs in the engine's
        # set-up, before a replication draws anything
        def no_draws(*args):
            raise AssertionError("a replication drew before the scenario was checked")

        monkeypatch.setattr("fleetlife.simulate._stream_draws", no_draws)
        fleet = fleet_of([asset("110-00000"), asset("150-00000", kv=150)])
        catalog = demo_catalog()
        if fault == "catalog":
            del catalog.replacements[150]
        sc = scenario(
            catalog=catalog,
            resources=Constrained(fte_count=1, hours_per_fte_per_year=1600.0)
            if fault == "oversized"
            else Unconstrained(),
            tick_months=2 if fault == "interval" else 1,
            fleet_policy=simple_policy(
                TimeBased(45.0), PeriodicInspections(start_age_years=25.0, interval_months=(3, 7))
            )
            if fault == "interval"
            else None,
        )
        with pytest.raises(ValueError, match=message):
            run_scenario(fleet, sc)

    def test_duplicate_ids_rejected(self):
        # the fleet table itself rejects them, before any scenario check
        with pytest.raises(ValueError, match="duplicate"):
            _Engine(fleet_of([asset("a"), asset("a")]), scenario())


def kpi_series(horizon, **columns):
    """A replication's KPIs over `horizon` years: zero but the given columns."""
    money, hours, counts = [Decimal(0)] * horizon, [0.0] * horizon, [0] * horizon
    zeros = {
        "capex": money, "opex": money, "inspection_hours": hours,
        "unavailability_hours": hours, "failures": counts, "replacements": counts,
        "backlog_hours": hours,
    }
    return KpiSeries(**{**zeros, **columns})


class TestAggregation:
    def test_identical_replications_collapse(self):
        report = run_scenario(fleet_of([asset()]), scenario(replications=3))
        agg = report.aggregates["capex"]
        assert agg.mean == agg.p10 == agg.p90
        assert agg.mean[45] == pytest.approx(43211.0)

    @pytest.mark.parametrize("replications", range(1, 81))
    def test_percentiles_match_numpy_bit_for_bit(self, replications):
        # columns with ties, zeros and values of mixed scale, as yearly KPIs
        # across replications have; the mean is numpy's sum of the rows over
        # their count
        rng = np.random.default_rng(replications)
        pool = np.array([0.0, 0.0, 1.33, 2.0 / 3.0, 40.0, 1e6 + 0.1, 86422.0])
        for _ in range(20):
            matrix = np.where(
                rng.random((replications, 60)) < 0.5,
                rng.choice(pool, (replications, 60)),
                rng.random((replications, 60)) * 10.0 ** rng.integers(-3, 7),
            )
            years = [sorted(year) for year in matrix.T.tolist()]
            for q in (0, 10, 50, 90, 100):
                got = np.array([_percentile(year, q) for year in years])
                assert got.tobytes() == np.percentile(matrix, q, axis=0).tobytes()
        series = [kpi_series(60, inspection_hours=row) for row in matrix.tolist()]
        aggregate = aggregate_replications(series)["inspection_hours"]
        for got, expected in (
            (aggregate.mean, matrix.sum(axis=0) / replications),
            (aggregate.p10, np.percentile(matrix, 10, axis=0)),
            (aggregate.p90, np.percentile(matrix, 90, axis=0)),
        ):
            assert np.array(got).tobytes() == expected.tobytes()

    def test_mean_of_a_year_does_not_depend_on_the_horizon(self):
        # the replications are summed in index order; numpy sums a matrix
        # of one column pairwise from 8 rows on, which rounds differently
        rng = np.random.default_rng(7)
        values = (rng.random(40) * 10.0 ** rng.integers(-3, 7, 40)).tolist()
        total = 0.0
        for v in values:
            total += v
        one = aggregate_replications([kpi_series(1, backlog_hours=[v]) for v in values])
        two = aggregate_replications([kpi_series(2, backlog_hours=[v, 1.0]) for v in values])
        assert one["backlog_hours"].mean == two["backlog_hours"].mean[:1] == [total / 40]

    def test_mismatched_horizons_rejected(self):
        with pytest.raises(ValueError, match="mismatched"):
            aggregate_replications([kpi_series(5), kpi_series(6)])

    def test_compare_report_with_itself(self):
        report = run_scenario(fleet_of([asset()]), scenario(horizon_years=50))
        comparison = compare_scenarios(report, report)
        assert all(d == 0.0 for d in comparison.delta)
        assert comparison.crossover_year is None

    def test_compare_horizon_mismatch(self):
        a = run_scenario(fleet_of([asset()]), scenario(horizon_years=10))
        b = run_scenario(fleet_of([asset()]), scenario(horizon_years=20))
        with pytest.raises(ValueError, match="different horizons"):
            compare_scenarios(a, b)

    def test_report_json_round_trip(self):
        from fleetlife.simulate import SimulationReport

        report = run_scenario(
            fleet_of([asset()]), scenario(horizon_years=50, failures_enabled=True)
        )
        payload = report.to_json_dict()
        clone = SimulationReport.from_json_dict(payload)
        assert clone.to_json_dict() == payload

    def test_kpis_csv_shape(self):
        import io

        report = run_scenario(fleet_of([asset()]), scenario(horizon_years=50, replications=2))
        out = io.StringIO()
        report.write_kpis_csv(out)
        lines = out.getvalue().splitlines()
        assert lines[0].startswith("year,replication,capex,opex,totex")
        assert len(lines) == 1 + 50 * 2
        year45 = lines[1 + 45].split(",")
        assert year45[2] == "43211.00"


class TestApparentHazard:
    # Under hazard_age="apparent" with a constant rate r, an asset's life is
    # Weibull(beta, eta / r) in real time, so each tick's failure fraction
    # among survivors is that law's conditional probability. For rate 2 and
    # Weibull(3, 2), the first 12-month tick fails 1 - exp(-1) = 63.2%.
    # Under hazard_age="real" the rate is ignored and the life is the law.
    @pytest.mark.parametrize(
        "hazard_age, rate, law",
        [
            ("apparent", 2.0, WeibullLaw(beta=3.0, eta=2.0)),
            ("apparent", 1.25, WeibullLaw(beta=2.0, eta=2.5)),
            ("real", 2.0, WeibullLaw(beta=3.0, eta=2.0)),
        ],
        ids=["2.0-law0", "1.25-law1", "real-2.0-law0"],
    )
    def test_tick_fraction_matches_rescaled_law(self, hazard_age, rate, law):
        n = 3000
        fleet = fleet_of([asset(f"110-{i:05d}") for i in range(n)])
        sc = scenario(
            laws={vc: law for vc in VoltageClass},
            failures_enabled=True,
            degradation_rates=ConstantRate(rate),
            hazard_age=hazard_age,
            # nothing executes, so failed assets stay failed
            resources=EMPTY_POOL,
            tick_months=12,
            horizon_years=2,
        )
        series = run_scenario(fleet, sc).replications[0]
        scale = rate if hazard_age == "apparent" else 1.0
        real_time_law = WeibullLaw(beta=law.beta, eta=law.eta / scale)
        at_risk = n
        for year in range(2):
            p = real_time_law.conditional_failure_probability(float(year), 1.0)
            bound = 4.5 * math.sqrt(p * (1 - p) / at_risk) + 1.0 / at_risk
            assert series.failures[year] / at_risk == pytest.approx(p, abs=bound)
            at_risk -= series.failures[year]

    def test_overflowing_start_hazard_fails_at_once(self):
        # A rate near exp(300) puts every start age far past the law's
        # scale, where H(start) overflows: each generation then fails in the
        # tick it is first at risk, every asset every tick, and no numpy
        # overflow warning is raised.
        commissioned = [date(1990 + i % 20, 1 + i % 12, 1) for i in range(100)]
        fleet = fleet_of([asset(f"110-{i:05d}", commissioned=d) for i, d in enumerate(commissioned)])
        sc = dataclasses.replace(
            builtin_scenario("time-based", "unconstrained", replications=1),
            degradation_rates=LognormalRate(mu=300.0, sigma=0.2),
            hazard_age="apparent",
            horizon_years=30,
        )
        series = run_scenario(fleet, sc).replications[0]
        assert series.failures == [100 * 12] * 30

    def test_overflowing_inverse_power_never_fails(self):
        # A shape of 1e-300 makes (H(start) + e) ** (1 / beta) overflow for
        # every start age above 0: the failure age is inf, its limit, so no
        # asset ever fails, and no numpy overflow warning is raised.
        fleet = generate_synthetic_fleet(
            SyntheticFleetSpec({VoltageClass.V110: 100}, (1980, 1990), seed=1)
        )
        sc = dataclasses.replace(
            builtin_scenario("time-based", "unconstrained", replications=1),
            laws={**REFERENCE_LAWS, VoltageClass.V110: WeibullLaw(beta=1e-300, eta=63.79)},
            horizon_years=30,
            start_date=date(2021, 7, 1),
        )
        series = run_scenario(fleet, sc).replications[0]
        assert series.failures == [0] * 30
        assert sum(series.replacements) == 100

    def test_overflowing_scaled_start_fails_at_once(self):
        # A rate of exp(709), near the largest float, makes the scaled start
        # age itself overflow for every asset older than a few years: each
        # generation still fails in the tick it is first at risk, with no
        # numpy overflow warning.
        fleet = generate_synthetic_fleet(
            SyntheticFleetSpec({VoltageClass.V110: 100}, (1980, 1990), seed=1)
        )
        sc = dataclasses.replace(
            builtin_scenario("time-based", "unconstrained", replications=1),
            degradation_rates=LognormalRate(mu=709.0, sigma=0.0),
            hazard_age="apparent",
            horizon_years=30,
        )
        series = run_scenario(fleet, sc).replications[0]
        assert series.failures == [100 * 12] * 30


class TestStreams:
    def test_philox_matches_numpy(self):
        # numpy increments its counter before each block, so its block at
        # counter c is the kernel's at c + 1; the last cases carry across
        # words
        rng = np.random.default_rng(2024)
        top = 2**64 - 1
        counters = [
            [int(w) for w in rng.integers(0, 2**64, 4, dtype=np.uint64)] for _ in range(200)
        ]
        counters += [[top, 5, 6, 7], [top, top, 6, 7], [top, top, top, 7], [top] * 4]
        keys = rng.integers(0, 2**64, (len(counters), 2), dtype=np.uint64)
        expected = [
            np.random.Philox(counter=np.array(c, dtype=np.uint64), key=k).random_raw(4).tolist()
            for c, k in zip(counters, keys)
        ]
        incremented = []
        for c in counters:
            value = (sum(w << (64 * i) for i, w in enumerate(c)) + 1) % 2**256
            incremented.append([(value >> (64 * i)) & top for i in range(4)])
        words = np.array(incremented, dtype=np.uint64).T
        blocks = _philox4x64(tuple(words), (keys[:, 0], keys[:, 1]))
        assert np.stack(blocks, axis=1).tolist() == expected

    def test_draws_in_slices_are_the_draws_at_once(self, monkeypatch):
        # each block depends only on its counter and key, so slices of 3
        # assets (the last one short) give the bits of one call over all 10
        keys = _asset_keys([f"110-{i:05d}".encode() for i in range(10)])
        generations = np.array([0, 1, 2, 5])
        whole = _stream_draws(keys, 2**70 + 3, 4, generations)
        monkeypatch.setattr("fleetlife.simulate._DRAW_SLICE", 3)
        sliced = _stream_draws(keys, 2**70 + 3, 4, generations)
        for a, b in zip(whole, sliced):
            assert a.shape == b.shape == (4, 10)
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("value", [0.0, -2.0, float("nan")])
    def test_constant_rate_must_be_positive(self, value):
        with pytest.raises(ValueError, match="rate must be positive"):
            ConstantRate(value)


class TestEventTimeFailures:
    @pytest.mark.parametrize("hazard_age", ["real", "apparent"])
    def test_failure_ages_follow_conditional_law(self, hazard_age):
        # Generation 0 of 20-year-old assets is at risk from age 20, every
        # later generation from one quarterly tick; under the apparent
        # hazard, rate 1.5 scales the law to Weibull(2.5, 20) in real time.
        law = WeibullLaw(beta=2.5, eta=30.0)
        fleet = fleet_of(
            [asset(f"110-{i:05d}", commissioned=commissioned_aged(20.0)) for i in range(2000)]
        )
        sc = scenario(
            laws={vc: law for vc in VoltageClass},
            failures_enabled=True,
            degradation_rates=ConstantRate(1.5),
            hazard_age=hazard_age,
            tick_months=3,
        )
        engine = _Engine(fleet, sc)
        engine._start(0)
        start, ages, _ = engine._failure_ages(np.arange(4))
        eta = law.eta / 1.5 if hazard_age == "apparent" else law.eta

        def conditional_cdf(a0):
            return lambda t: -np.expm1((a0 / eta) ** law.beta - (t / eta) ** law.beta)

        for rows, a0 in ((slice(0, 1), 20.0), (slice(1, 4), 0.25)):
            assert (start[rows] == a0).all()
            assert stats.kstest(ages[rows].ravel(), conditional_cdf(a0)).pvalue > 0.01
        # the test tells the conditional law from the unconditional one
        assert stats.kstest(ages[0], conditional_cdf(0.0)).pvalue < 1e-6

    # an open pool doubles the tables in its rounds of generations, and a
    # binding one (one 400-person-hour replacement a month) in its
    # replacement pass
    @pytest.mark.parametrize(
        "resources",
        [Unconstrained(), Constrained(fte_count=1, hours_per_fte_per_year=4800.0)],
        ids=["open", "binding"],
    )
    def test_first_table_size_does_not_change_report(self, monkeypatch, resources):
        # lives of a few years over 30 years: the table started at one
        # generation doubles several times
        fleet = generate_synthetic_fleet(
            SyntheticFleetSpec(
                sizes={VoltageClass.V110: 40, VoltageClass.V150: 20},
                commission_years=(1970, 2010),
                seed=4,
            )
        )
        sc = scenario(
            fleet_policy=simple_policy(ConditionBased(6.0)),
            laws={vc: WeibullLaw(beta=1.5, eta=4.0) for vc in VoltageClass},
            failures_enabled=True,
            degradation_rates=LognormalRate(0.0, 0.3),
            hazard_age="apparent",
            horizon_years=30,
            resources=resources,
        )
        runs = []
        for first in (1, 64):
            monkeypatch.setattr("fleetlife.simulate._FIRST_GENERATIONS", first)
            engine = _Engine(fleet, sc)
            runs.append((engine.run(1).to_json_dict(), engine.tables.shape[1]))
        assert runs[0][0] == runs[1][0]
        assert runs[0][1] >= 8 and runs[1][1] == 64
        if isinstance(resources, Constrained):
            # the pool binds: replacement requests wait at every year end
            assert all(b > 0 for b in runs[0][0]["backlog_hours"][1:])

    @pytest.mark.parametrize(
        "resources",
        [Unconstrained(), Constrained(fte_count=1, hours_per_fte_per_year=4800.0)],
        ids=["open", "binding"],
    )
    def test_replication_after_another_equals_a_fresh_one(self, resources):
        # one engine runs every replication of a run: replication 1 run
        # after replication 0, whose tables doubled and whose cadences and
        # counters moved, gives what a fresh engine's replication 1 gives
        fleet = generate_synthetic_fleet(
            SyntheticFleetSpec(
                sizes={VoltageClass.V110: 40, VoltageClass.V150: 20},
                commission_years=(1970, 2010),
                seed=4,
            )
        )
        sc = scenario(
            fleet_policy=simple_policy(
                ConditionBased(6.0), PeriodicInspections(start_age_years=1.0, interval_months=(3, 12))
            ),
            laws={vc: WeibullLaw(beta=1.5, eta=4.0) for vc in VoltageClass},
            failures_enabled=True,
            degradation_rates=LognormalRate(0.0, 0.3),
            hazard_age="apparent",
            horizon_years=30,
            resources=resources,
        )

        def outcome(engine, rep):
            series = engine.run(rep)
            left = [len(ids) for ids in pending(engine)]
            return series, engine.raised, engine.executed, engine.dropped, engine.examined, left

        engine = _Engine(fleet, sc)
        first = outcome(engine, 0)
        assert engine.tables.shape[1] > _FIRST_GENERATIONS
        second = outcome(engine, 1)
        assert second == outcome(_Engine(fleet, sc), 1)
        assert second[0] != first[0]
        if isinstance(resources, Constrained):
            # the pool binds: work waits at every year end
            assert all(b > 0 for b in second[0].backlog_hours[1:])

    def test_policies_share_failure_draws(self):
        # An asset's first failure does not depend on the policy, as long
        # as neither policy replaced the asset before it.
        fleet = generate_synthetic_fleet(
            SyntheticFleetSpec(
                sizes={VoltageClass.V110: 150, VoltageClass.V150: 150},
                commission_years=(1960, 2000),
                seed=8,
            )
        )
        runs = []
        for trigger in (TimeBased(45.0), ConditionBased(40.0)):
            sc = scenario(
                fleet_policy=simple_policy(trigger),
                laws={vc: WeibullLaw(beta=3.0, eta=40.0) for vc in VoltageClass},
                failures_enabled=True,
                degradation_rates=LognormalRate(0.0, 0.2),
                horizon_years=40,
            )
            engine = traced(fleet, sc)
            first_failure, first_planned = {}, {}
            for k, (failed, done) in enumerate(zip(engine.failed, engine.completed)):
                for i in failed:
                    first_failure.setdefault(i, k)
                for cls, i in done:
                    if cls == _PLANNED:
                        first_planned.setdefault(i, k)
            runs.append((first_failure, first_planned))
        (fail_a, planned_a), (fail_b, planned_b) = runs
        assert planned_a != planned_b
        shared = 0
        for i in range(len(fleet)):
            replaced = min(planned_a.get(i, math.inf), planned_b.get(i, math.inf))
            if min(fail_a.get(i, math.inf), fail_b.get(i, math.inf)) < replaced:
                assert fail_a.get(i) == fail_b.get(i)
                shared += 1
        assert shared > 20


def annual_scenario(**overrides) -> Scenario:
    # 12-month ticks so every tick closes a year and its backlog is reported
    inspections = PeriodicInspections(start_age_years=0.0, interval_months=(12,))
    defaults = dict(
        fleet_policy=simple_policy(TimeBased(2.0), inspections),
        tick_months=12,
        horizon_years=4,
    )
    defaults.update(overrides)
    return scenario(**defaults)


class TestEngineQueues:
    # demo catalog: replacement 40 h x 10 = 400 person-hours, annual
    # (detailed) inspection 1.33 h x 2 = 2.66 person-hours; a year's hours
    # are their exact sum, rounded once
    INSPECTION = 1.33 * 2

    def test_year_end_backlog_is_live_carried_work(self):
        # Three new assets, inspected yearly, replaced at age 2, with 405
        # person-hours a year.
        # Year 2: all three replacements fall due; a's executes (5 h left),
        #   b's and c's carry. a's inspection is stale, b's executes, c's
        #   carries.
        # Year 3: b's replacement executes (5 h left), c's carries. Queued
        #   inspections: c(year 2) executes; a(year 3) does not fit;
        #   b(year 3) is stale; c(year 3) does not fit.
        fleet = fleet_of([asset("a"), asset("b"), asset("c")])
        sc = annual_scenario(resources=Constrained(fte_count=1, hours_per_fte_per_year=405.0))
        series = run_scenario(fleet, sc).replications[0]
        assert series.replacements == [0, 0, 1, 1]
        assert series.inspection_hours == [3 * 1.33, 3 * 1.33, 1.33, 1.33]
        assert series.backlog_hours == [
            0.0,
            0.0,
            math.fsum([400.0, 400.0, self.INSPECTION]),
            math.fsum([400.0, self.INSPECTION, self.INSPECTION]),
        ]

    def test_inspection_of_asset_replaced_same_tick_is_dropped(self):
        # In year 2 the replacement takes the whole 400 person-hours. The
        # inspection raised in the same tick is stale once the replacement
        # executes: it is neither executed later nor carried as backlog.
        sc = annual_scenario(resources=Constrained(fte_count=1, hours_per_fte_per_year=400.0))
        series = run_scenario(fleet_of([asset()]), sc).replications[0]
        assert series.replacements == [0, 0, 1, 0]
        assert series.inspection_hours == [1.33, 1.33, 0.0, 1.33]
        assert series.opex[2] == Decimal(0)
        assert series.backlog_hours == [0.0, 0.0, 0.0, 0.0]

    def test_failure_with_planned_replacement_pending(self):
        # a1 and a2, both ten years old, fall due for planned replacement at
        # tick 0, and the pool fits one replacement a tick: a1's executes and
        # a2's carries. A near-step hazard at 10.1 years fails a2 at tick 1,
        # with its planned request still pending. Its corrective replacement
        # executes first, and the planned request is dropped as stale.
        sc = scenario(
            fleet_policy=simple_policy(TimeBased(5.0)),
            laws={vc: WeibullLaw(beta=6000.0, eta=10.1) for vc in VoltageClass},
            failures_enabled=True,
            resources=pool(400.0),
            horizon_years=1,
        )
        aged = commissioned_aged(10.0)
        engine = traced(fleet_of([asset("a1", commissioned=aged), asset("a2", commissioned=aged)]), sc)
        assert engine.completed[:3] == [[(_PLANNED, 0)], [(_CORRECTIVE, 1)], []]
        assert engine.raised == [1, 2, 0] and engine.executed == 2
        assert engine.dropped == 1 and pending(engine) == [[], [], []]

    def test_failed_asset_replaced_by_its_planned_request(self):
        # Six ten-year-old assets fall due for planned replacement (100
        # person-hours) at tick 0, and the pool offers 450 a tick: four
        # execute, and a5's and a6's carry. A near-step hazard at 10.1 years
        # fails both at tick 1. a5's corrective replacement (300) executes,
        # and its planned request is dropped. a6's does not fit the 150
        # left, but its planned request does and replaces it, so its
        # corrective request is dropped.
        def spec(name, hours):
            return ActivitySpec(name, hours, 1, Decimal(0), Decimal(0))

        catalog = ActivityCatalog(
            replacements={110: spec("p", 100.0)},
            corrective={110: spec("c", 300.0)},
        )
        sc = scenario(
            fleet_policy=simple_policy(TimeBased(5.0)),
            catalog=catalog,
            laws={vc: WeibullLaw(beta=6000.0, eta=10.1) for vc in VoltageClass},
            failures_enabled=True,
            resources=pool(450.0),
            horizon_years=1,
        )
        aged = commissioned_aged(10.0)
        engine = traced(fleet_of([asset(f"a{i}", commissioned=aged) for i in range(1, 7)]), sc)
        assert engine.completed[0] == [(_PLANNED, i) for i in range(4)]
        assert engine.completed[1] == [(_CORRECTIVE, 4), (_PLANNED, 5)]
        assert engine.failed[1] == [4, 5]
        assert engine.raised == [2, 6, 0] and engine.executed == 6
        assert engine.dropped == 2 and pending(engine) == [[], [], []]

    def test_inspection_of_failed_asset_is_dropped(self):
        # With no pool, the inspection raised in year 0 carries. A step
        # hazard then fails the asset in year 1: the carried inspection is
        # stale, and only the waiting corrective replacement is backlog.
        step_law = WeibullLaw(beta=6000.0, eta=1.95)
        sc = annual_scenario(
            laws={vc: step_law for vc in VoltageClass},
            failures_enabled=True,
            resources=EMPTY_POOL,
            horizon_years=2,
        )
        series = run_scenario(fleet_of([asset()]), sc).replications[0]
        assert series.failures == [0, 1]
        assert series.backlog_hours == [self.INSPECTION, 400.0]

    @pytest.mark.parametrize(
        "intervals, executed_cost",
        [((3, 6, 12), 1 + 10), ((12, 3, 6), 100 + 1), ((6, 12, 3), 10 + 100)],
    )
    def test_cadences_due_together_execute_in_rule_order(self, intervals, executed_cost):
        # Quarterly ticks; the three cadences first fall due together at
        # age 9 months, the last tick of year 0. Each inspection takes one
        # person-hour and the pool offers two a tick, so the first two
        # cadences of the rule execute and the third carries.
        def spec(name, cost):
            return ActivitySpec(name, 1.0, 1, Decimal(0), Decimal(cost))

        catalog = ActivityCatalog(
            replacements={110: spec("r", 5)},
            inspections={
                (110, 3): spec("i3", 1),
                (110, 6): spec("i6", 10),
                (110, 12): spec("i12", 100),
            },
        )
        plan = PeriodicInspections(start_age_years=0.75, interval_months=intervals)
        sc = scenario(
            fleet_policy=simple_policy(TimeBased(45.0), plan),
            catalog=catalog,
            resources=Constrained(fte_count=1, hours_per_fte_per_year=8.0),
            tick_months=3,
            horizon_years=1,
        )
        series = run_scenario(fleet_of([asset()]), sc).replications[0]
        assert series.opex[0] == Decimal(executed_cost)
        assert series.inspection_hours[0] == 2.0
        assert series.backlog_hours[0] == 1.0


class TestGreedyWalk:
    # the engine's array walk against the scalar allocate_resources
    SHAPES = [(0.0, 1), (0.5, 1), (1.33, 2), (2.5, 3), (40.0, 10)]

    @settings(max_examples=300, deadline=None)
    @given(
        shapes=st.lists(st.sampled_from(SHAPES), max_size=400),
        budget=st.one_of(
            st.sampled_from([0.0, 0.5, 2.66, 400.0]),
            st.floats(min_value=0.0, max_value=1500.0),
        ),
    )
    # no request; a budget below every demand; misfits in the middle, each
    # followed by requests that still fit; a misfit as the last request
    @example(shapes=[], budget=400.0)
    @example(shapes=[(2.5, 3)] * 4, budget=7.0)
    @example(shapes=[(0.5, 1), (40.0, 10), (0.5, 1), (2.5, 3), (1.33, 2)], budget=8.0)
    @example(shapes=[(1.33, 2)] * 3 + [(40.0, 10)], budget=10.0)
    def test_matches_scalar_allocation(self, shapes, budget):
        specs = [
            ActivitySpec("x", hours, fte, Decimal(0), Decimal(0))
            for hours, fte in shapes
        ]
        requests = [
            ActivityRequest(ActivityKind.INSPECTION, 0, f"{pos:05d}", spec)
            for pos, spec in enumerate(specs)
        ]
        executed, _ = allocate_resources(requests, budget)
        remaining = budget
        for req in executed:
            remaining -= req.spec.person_hours
        demand = np.array([spec.person_hours for spec in specs])
        positions, left = _greedy_walk(demand, budget)
        assert positions.tolist() == [int(req.asset_id) for req in executed]
        assert left == remaining


def cadence_scenario(tick, intervals, start_age, trigger_age, horizon, **overrides):
    """One 110 kV family inspected at the given cadences.

    Cadence r costs 1000**r, so a year's OPEX spells out how many
    inspections of each cadence executed; activities take one person-hour.
    """

    def spec(name, cost):
        return ActivitySpec(name, 1.0, 1, Decimal(0), Decimal(cost))

    catalog = ActivityCatalog(
        replacements={110: spec("r", 0)},
        inspections={
            (110, m): spec(f"i{m}", 1000**r)
            for r, m in enumerate(intervals)
        },
    )
    plan = PeriodicInspections(start_age_years=start_age, interval_months=tuple(intervals))
    return scenario(
        fleet_policy=simple_policy(TimeBased(trigger_age), plan),
        catalog=catalog,
        tick_months=tick,
        horizon_years=horizon,
        **overrides,
    )


def executed_per_cadence(series, n_cadences):
    counts = []
    for opex in series.opex:
        value = int(opex)
        counts.append([(value // 1000**r) % 1000 for r in range(n_cadences)])
    return counts


def exact_age(commission, start):
    """The exact age in months at `start` of an asset commissioned on day
    number `commission`: days x 12 / 365.25."""
    return Fraction(UNITS_PER_DAY * (start.toordinal() - commission), UNITS_PER_MONTH)


def float_rule_counts(fleet, sc):
    """Inspections per year and cadence, by `inspection_due` at every tick.

    Ages are exact, from the commission day, plus one tick per tick, reset
    to 0 by the time-based replacement. An unconstrained pool executes that
    replacement in the tick it falls due, which makes the inspections
    raised with it stale.
    """
    fam = sc.policy.families[VoltageClass.V110]
    plan = fam.inspections
    counts = [[0] * len(plan.interval_months) for _ in range(sc.horizon_years)]
    for commission in fleet.commission.tolist():
        age = exact_age(commission, sc.start_date)
        for k in range(sc.horizon_years * 12 // sc.tick_months):
            if k > 0:
                age += sc.tick_months
            if trigger_reached(age, 1.0, fam.replacement.age_years):
                age = Fraction(0)
                continue
            year = k * sc.tick_months // 12
            for r, interval in enumerate(plan.interval_months):
                if inspection_due(age, plan, interval, sc.tick_months):
                    counts[year][r] += 1
    return counts


# days of 16 whole months (365.25 / 12 * 16); ages of n x 487 days are whole
# months, which puts the cadence phase on its boundary
MONTHS_16 = 487

service_days = st.one_of(
    st.builds(
        lambda n, d: max(0, MONTHS_16 * n + d),
        st.integers(0, 40),
        st.sampled_from([-1, 0, 1]),
    ),
    st.integers(0, 20000),
)


class RecordingEngine(_Engine):
    """A constrained run, keeping what each tick raised, saw and executed.

    Per tick: `failed` holds the assets that failed, `planned` those whose
    planned replacement was triggered, `inspection_log` the ages (grid
    units) and in-service flags at allocation and the (asset, activity
    name) inspections raised, `requested` the (class, asset, activity id)
    requests raised, in order, and `completed` the (class, asset) requests
    that executed, in order. An open pool runs no ticks, so `traced` runs
    its scenarios under a pool that never binds.

    The engine raises nothing tick by tick. The failures and replacements
    of each tick are the events its replacement pass hands the inspection
    pass, and the inspections executed are read as they complete. The rest
    is replayed here from the events once the run ends: a generation's
    origin is tick 0 (from its start age) or its replacement tick (from age
    0), and its trigger tick is its row of the drawn tables (`tables[1]`)
    past its origin; an asset is out of service from its failure to its
    replacement, and a cadence is due every period from its anchor at
    set-up, or from its replacement tick plus `entry_restart`, while its
    asset is in service.
    """

    def _start(self, rep):
        super()._start(rep)
        assert self.capacity is not None, "an open pool's run has no ticks to trace"
        self.planned = [[] for _ in range(self.n_ticks)]
        self._triggered(np.arange(len(self.age0)), self.ticks[1])
        self.events, self.inspected_at = {}, {}

    def run(self, rep):
        self.series = super().run(rep)
        self._replay(self.anchor0.copy())
        return self.series

    def _triggered(self, assets, ticks):
        for a, k in zip(assets.tolist(), ticks.tolist()):
            if k < self.n_ticks:
                self.planned[k].append(a)

    def _apply(self, k, event):
        self.events[k] = event
        super()._apply(k, event)

    def _complete(self, entries, k, year):
        self.inspected_at.setdefault(k, []).extend(self.entry_asset[entries].tolist())
        super()._complete(entries, k, year)

    def _replay(self, anchor):
        n = len(self.age0)
        origin, generation = np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int64)
        out = np.zeros(n, dtype=bool)
        self.failed, self.completed, self.inspection_log, self.requested = [], [], [], []
        for k in range(self.n_ticks):
            _, failed, renewed, corrective = self.events.get(k, (None, [], [], 0))
            out[failed] = True
            self.planned[k].sort()
            since = k - anchor
            due = (since >= 0) & (since % self.entry_period == 0) & ~out[self.entry_asset]
            entries = due.nonzero()[0]
            assets, specs = self.entry_asset[entries].tolist(), self.entry_spec[entries].tolist()
            names = [self.specs[s].name for s in specs]
            ages = np.where(generation == 0, self.age0, 0) + (k - origin) * self.tick_units
            self.inspection_log.append((ages, ~out, list(zip(assets, names))))
            self.failed.append(failed)
            self.requested.append(
                [(_CORRECTIVE, a, self.corrective_spec[a]) for a in failed]
                + [(_PLANNED, a, self.planned_spec[a]) for a in self.planned[k]]
                + list(zip([_INSPECTION] * len(assets), assets, specs))
            )
            classes = [_CORRECTIVE] * corrective + [_PLANNED] * (len(renewed) - corrective)
            self.completed.append(
                list(zip(classes, renewed))
                + [(_INSPECTION, a) for a in self.inspected_at.get(k, [])]
            )
            origin[renewed], out[renewed] = k, False
            generation[renewed] += 1
            self._triggered(np.array(renewed), self.tables[1, generation[renewed], renewed] + k)
            entry = self._entries(renewed)
            anchor[entry] = k + self.entry_restart[entry]


def assert_raised_by_float_rule(engine, sc):
    """At every tick, the raised inspections are those `inspection_due` gives
    for the in-service assets on the ages the engine holds; returns how many
    due inspections were skipped because their asset was out of service."""
    plan = sc.policy.families[VoltageClass.V110].inspections
    skipped = 0
    for ages, in_service, got in engine.inspection_log:
        due = [
            (i, f"i{m}")
            for i in range(len(ages))
            for m in plan.interval_months
            if inspection_due(Fraction(int(ages[i]), UNITS_PER_MONTH), plan, m, sc.tick_months)
        ]
        assert got == [(i, name) for i, name in due if in_service[i]]
        skipped += sum(not in_service[i] for i, _ in due)
    return skipped


class TestDueBefore:
    # the one rule that counts due ticks, against enumerating them
    @settings(max_examples=300, deadline=None)
    @given(
        first=st.integers(-50, 50),
        period=st.one_of(st.integers(1, 30), st.just(1200)),
        span=st.integers(-60, 200),
    )
    @example(first=0, period=1, span=0)
    @example(first=7, period=1200, span=1)
    def test_counts_due_ticks_below_end(self, first, period, span):
        end = first + span
        event("span < 0" if span < 0 else "span == 0" if span == 0 else "span > 0")
        enumerated = sum(1 for m in range(201) if first + m * period < end)
        assert due_before(first, period, end) == enumerated
        counted = due_before(np.array([first] * 2), np.array([period] * 2), np.array([end, end]))
        assert counted.tolist() == [enumerated] * 2


class TestInspectionSchedule:
    # the engine's cadence due ticks against the float rule evaluated for
    # every asset at every tick
    @settings(max_examples=150, deadline=None)
    @given(
        tick=st.sampled_from(VALID_TICKS),
        multiples=st.lists(st.integers(1, 6), min_size=1, max_size=3, unique=True),
        start_age=st.sampled_from([0.0, 0.5, 2.55, 25.0]),
        trigger_age=st.sampled_from([3.0, 5.5, 99.0]),
        horizon=st.integers(1, 8),
        days=st.lists(service_days, min_size=1, max_size=3),
    )
    # a replacement at age 36 months restarts the cadence, due next at age 6
    # months, earlier than the old cadence's next due date
    @example(
        tick=1, multiples=[24], start_age=0.5, trigger_age=3.0, horizon=4, days=[0]
    )
    def test_counts_match_float_rule(
        self, tick, multiples, start_age, trigger_age, horizon, days
    ):
        intervals = [tick * m for m in multiples]
        sc = cadence_scenario(tick, intervals, start_age, trigger_age, horizon)
        fleet = fleet_of([
            asset(f"110-{i:05d}", commissioned=date.fromordinal(START.toordinal() - d))
            for i, d in enumerate(days)
        ])
        series = run_scenario(fleet, sc).replications[0]
        assert executed_per_cadence(series, len(intervals)) == float_rule_counts(fleet, sc)

    @pytest.mark.parametrize("tick", VALID_TICKS)
    @pytest.mark.parametrize("fte", [0, 1])
    def test_out_of_service_assets_skip_due_inspections(self, tick, fte):
        # Failures under a short Weibull life, with a pool that repairs one
        # asset per tick at most (fte=1) or never (fte=0): assets are out of
        # service across due ticks and are replaced mid-run.
        sc = cadence_scenario(
            tick,
            [tick, 2 * tick, 3 * tick],
            start_age=0.0,
            trigger_age=99.0,
            horizon=12,
            laws={vc: WeibullLaw(beta=1.5, eta=4.0) for vc in VoltageClass},
            failures_enabled=True,
            resources=Constrained(fte_count=fte, hours_per_fte_per_year=12.0 / tick),
            master_seed=11,
        )
        days = [MONTHS_16 * 3 - 1, MONTHS_16 * 7, MONTHS_16 * 9 + 1]
        fleet = fleet_of([
            asset(f"110-{i:05d}", commissioned=date.fromordinal(START.toordinal() - d))
            for i, d in enumerate(days)
        ])
        engine = RecordingEngine(fleet, sc)
        series = engine.run(0)
        assert assert_raised_by_float_rule(engine, sc) > 0
        assert sum(series.failures) > 0
        assert (sum(series.replacements) > 0) == (fte > 0)

    def test_whole_month_phases_are_checked_once_a_cadence(self):
        # A new asset inspected yearly from age 0 and replaced at 2 years.
        # A replacement books the new generation's first due tick, so the
        # cadence raises at its due ticks only, not also at the first tick
        # of each new generation (age 1 month, not due).
        sc = cadence_scenario(1, [12], start_age=0.0, trigger_age=2.0, horizon=5)
        engine = traced(fleet_of([asset()]), dataclasses.replace(sc, resources=NEVER_BINDS))
        raised = [k for k, (_, _, got) in enumerate(engine.inspection_log) if got]
        assert raised == [0, 12, 24, 36, 48]
        assert [k for k, due in enumerate(engine.planned) if due] == [24, 48]


def invariant_scenario(data, **overrides):
    tick = data.draw(st.sampled_from(VALID_TICKS), label="tick")
    # About one example in six draws no inspection plan. The roll that
    # decides it is not 0, the value hypothesis favours, which would make
    # plan-less examples common.
    plan_less = data.draw(st.integers(0, 5), label="plan roll") == 3
    event("drawn plan: none" if plan_less else "drawn plan: 1-3 cadences")
    multiples = [] if plan_less else data.draw(
        st.lists(st.integers(1, 4), min_size=1, max_size=3, unique=True)
    )
    plan = None
    if multiples:
        plan = PeriodicInspections(
            start_age_years=data.draw(st.sampled_from([0.0, 1.5, 20.0])),
            interval_months=tuple(tick * m for m in multiples),
        )
    if data.draw(st.booleans(), label="time-based"):
        trigger = TimeBased(data.draw(st.floats(1.0, 50.0)))
    else:
        trigger = ConditionBased(data.draw(st.floats(1.0, 50.0)))

    def spec(name, hours, fte, cost):
        return ActivitySpec(name, hours, fte, Decimal(cost), Decimal("0.25"))

    catalog = ActivityCatalog(
        replacements={110: spec("r", 5.0, 2, "900")},
        inspections={
            (110, tick * m): spec(f"i{m}", 0.5 * m, 1, "3")
            for m in (1, 2, 3, 4)
        },
    )
    defaults = dict(
        fleet_policy=simple_policy(trigger, plan),
        catalog=catalog,
        laws={
            vc: WeibullLaw(
                beta=data.draw(st.floats(0.8, 6.0), label="beta"),
                eta=data.draw(st.floats(2.0, 60.0), label="eta"),
            )
            for vc in VoltageClass
        },
        tick_months=tick,
        horizon_years=data.draw(st.integers(1, 10), label="horizon"),
        failures_enabled=data.draw(st.booleans(), label="failures"),
        degradation_rates=LognormalRate(0.0, 0.3),
        master_seed=data.draw(st.integers(0, 2**31), label="seed"),
    )
    defaults.update(overrides)
    return scenario(**defaults)


def invariant_fleet(data, min_size=1, max_size=6):
    days = data.draw(
        st.lists(st.integers(0, 20000), min_size=min_size, max_size=max_size), label="days"
    )
    return fleet_of([
        asset(f"110-{i:05d}", commissioned=date.fromordinal(START.toordinal() - d))
        for i, d in enumerate(days)
    ])


def assert_matches_reference_queue(engine, fleet, sc):
    """Replays the requests a traced engine raised, tick by tick, through a
    `ReferenceQueue`, and asserts that each tick executes what the engine
    executed, in order, and that each year-end backlog is `math.fsum` of
    the reference's live person-hours. Returns whether an inspection was
    live in the queue at a year end."""
    ids = sorted(fleet.asset_id)
    kinds = {PRIORITY[kind]: kind for kind in ActivityKind}
    reference = ReferenceQueue(sc.resources.tick_capacity(sc.tick_months))
    tpy, carried = 12 // sc.tick_months, False
    for k, requested in enumerate(engine.requested):
        executed = reference.tick(
            ActivityRequest(kinds[cls], k, ids[a], engine.specs[spec])
            for cls, a, spec in requested
        )
        assert engine.completed[k] == [
            (PRIORITY[req.kind], ids.index(req.asset_id)) for req in executed
        ]
        if (k + 1) % tpy == 0:
            assert engine.series.backlog_hours[k // tpy] == math.fsum(reference.backlog())
            carried |= any(
                req.kind is ActivityKind.INSPECTION and reference.live(req, g)
                for req, g in reference.queue
            )
    return carried


def label_carried(engine):
    """Label the example by whether an inspection was pending at a year end
    of its `LedgerEngine` run."""
    carried = any(engine.carried)
    event("carries a live inspection past a year end" if carried else "carries none")


def timed(data, catalog, durations):
    """The catalog with each activity's duration drawn from `durations`."""

    def retime(specs):
        return {
            key: dataclasses.replace(spec, duration_hours=data.draw(st.sampled_from(durations)))
            for key, spec in specs.items()
        }

    return ActivityCatalog(retime(catalog.replacements), retime(catalog.inspections))


class TestEngineInvariants:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), fte=st.sampled_from([None, 0, 1, 2, 3]))
    def test_raised_requests_are_accounted_for(self, data, fte):
        # Every request raised is executed, dropped as stale or still
        # pending, and every failure raises one corrective replacement. An
        # open pool examines each request as it is raised.
        # Fleets of 20 to 40 assets make a scarce pool carry inspections
        # across year ends; `label_carried` counts the examples that do.
        resources = (
            Unconstrained()
            if fte is None
            else Constrained(fte_count=fte, hours_per_fte_per_year=120.0)
        )
        sc = invariant_scenario(data, resources=resources)
        fleet = invariant_fleet(data, 20, 40)
        engine = LedgerEngine(fleet, sc)
        series = engine.run(0)
        label_carried(engine)
        queued = sum(map(len, pending(engine)))
        assert sum(engine.raised) == engine.executed + engine.dropped + queued
        assert engine.raised[_CORRECTIVE] == sum(series.failures)
        if fte is None:
            assert sum(engine.raised) == engine.examined
            assert engine.raised[_CORRECTIVE] + engine.raised[_PLANNED] == sum(series.replacements)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), fte=st.sampled_from([None, 0, 1, 2]))
    def test_hour_ledgers_are_exact_sums(self, data, fte):
        # Each year's inspection, unavailability and backlog hours are the
        # exact sums of their terms, rounded once, whatever order the terms
        # come in. The durations are not dyadic, so a running float sum
        # would differ; short lives and a scarce pool give failures waiting
        # for repair and work carried across year ends.
        resources = (
            NEVER_BINDS if fte is None else Constrained(fte_count=fte, hours_per_fte_per_year=120.0)
        )
        life = WeibullLaw(beta=data.draw(st.floats(0.8, 4.0)), eta=data.draw(st.floats(1.0, 8.0)))
        sc = invariant_scenario(
            data,
            resources=resources,
            failures_enabled=True,
            laws={vc: life for vc in VoltageClass},
        )
        sc = dataclasses.replace(sc, catalog=timed(data, sc.catalog, (1.33, 0.7, 2.1, 0.1, 4.9)))
        fleet = invariant_fleet(data, 20, 40)
        engine = LedgerEngine(fleet, sc)
        engine.run(0)
        label_carried(engine)
        engine.assert_ledgers_exact()

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), fte=st.integers(0, 3))
    def test_allocation_matches_a_reference_queue(self, data, fte):
        # The engine keeps no request queue: it reads each class's pending
        # requests from its asset and cadence state. The reference queue
        # holds every request raised and walks them one at a time. At every
        # tick both execute the same requests in the same order, and every
        # year-end backlog is the exact sum of the reference's live
        # person-hours; every request raised is executed, dropped as stale
        # or still pending. Short lives, a scarce pool and corrective work of
        # its own duration make failures wait and inspections carry; the
        # durations are not dyadic, so a running sum would show.
        durations = (1.33, 0.7, 2.1, 0.1, 4.9)
        life = WeibullLaw(beta=data.draw(st.floats(0.8, 4.0)), eta=data.draw(st.floats(1.0, 8.0)))
        sc = invariant_scenario(
            data,
            resources=Constrained(fte_count=fte, hours_per_fte_per_year=120.0),
            failures_enabled=True,
            laws={vc: life for vc in VoltageClass},
        )
        # one to three cadences from age 0
        multiples = data.draw(st.lists(st.integers(1, 4), min_size=1, max_size=3, unique=True))
        plan = PeriodicInspections(0.0, tuple(sc.tick_months * m for m in multiples))
        trigger = sc.policy.families[VoltageClass.V110].replacement
        # 110 and 150 kV assets, alternately, whose replacements take two
        # different drawn durations (150 kV corrective work falls back to the
        # planned one): a class's requests then need different person-hours,
        # so one may not fit while the budget still covers the class's
        # floor, and carry
        kvs = (110, 150)
        hours = data.draw(st.permutations(durations), label="replacement hours")
        replacements = {
            kv: dataclasses.replace(sc.catalog.replacements[110], duration_hours=h)
            for kv, h in zip(kvs, hours)
        }
        inspections = {(kv, m): spec for (_, m), spec in sc.catalog.inspections.items() for kv in kvs}
        catalog = timed(data, ActivityCatalog({}, inspections), durations)
        corrective = dataclasses.replace(
            replacements[110],
            name="c",
            duration_hours=data.draw(st.sampled_from(durations)),
        )
        sc = dataclasses.replace(
            sc,
            policy=simple_policy(trigger, plan),
            catalog=ActivityCatalog(replacements, catalog.inspections, {110: corrective}),
        )
        days = data.draw(st.lists(st.integers(0, 20000), min_size=20, max_size=40), label="days")
        fleet = fleet_of([
            asset(f"{kvs[i % 2]}-{i:05d}", kvs[i % 2], date.fromordinal(START.toordinal() - d))
            for i, d in enumerate(days)
        ])
        engine = traced(fleet, sc)
        carried = assert_matches_reference_queue(engine, fleet, sc)
        event("carries a live inspection past a year end" if carried else "carries none")
        queued = sum(map(len, pending(engine)))
        assert sum(engine.raised) == engine.executed + engine.dropped + queued

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), fte=st.integers(0, 2))
    def test_counted_backlog_matches_a_recount(self, data, fte):
        # 20 to 40 assets inspected at one to three cadences, with planned
        # replacements every one to four years and short lives, under a pool
        # of at most 20 person-hours a month: inspections carry, and many
        # are cleared by a failure or a replacement. The engine counts the
        # pending inspections of each cadence entry; at every year end its
        # backlog must equal a recount of the live requests of the reference
        # queue, every request raised is executed, dropped or pending, and
        # the hour ledgers are exact sums.
        tick = data.draw(st.sampled_from(VALID_TICKS), label="tick")
        multiples = data.draw(st.lists(st.integers(1, 4), min_size=1, max_size=3, unique=True))
        plan = PeriodicInspections(0.0, tuple(tick * m for m in multiples))
        trigger = TimeBased(data.draw(st.floats(1.0, 4.0), label="trigger"))

        def spec(name, hours, fte):
            return ActivitySpec(name, hours, fte, Decimal(1), Decimal(0))

        catalog = ActivityCatalog(
            replacements={110: spec("r", 5.0, 2)},
            inspections={
                (110, tick * m): spec(f"i{m}", 0.5 * m, 1)
                for m in multiples
            },
        )
        life = WeibullLaw(beta=data.draw(st.floats(0.8, 3.0)), eta=data.draw(st.floats(1.0, 6.0)))
        sc = scenario(
            fleet_policy=simple_policy(trigger, plan),
            catalog=catalog,
            laws={vc: life for vc in VoltageClass},
            resources=Constrained(fte_count=fte, hours_per_fte_per_year=120.0),
            tick_months=tick,
            horizon_years=10,
            failures_enabled=True,
            master_seed=data.draw(st.integers(0, 2**31), label="seed"),
        )
        days = data.draw(st.lists(st.integers(0, 3000), min_size=20, max_size=40), label="days")
        fleet = fleet_of([
            asset(f"110-{i:05d}", commissioned=date.fromordinal(START.toordinal() - d))
            for i, d in enumerate(days)
        ])
        engine = traced(fleet, sc)
        assert_matches_reference_queue(engine, fleet, sc)
        queued = sum(map(len, pending(engine)))
        assert sum(engine.raised) == engine.executed + engine.dropped + queued
        ledgers = LedgerEngine(fleet, sc)
        ledgers.run(0)
        ledgers.assert_ledgers_exact()

    def test_counted_backlog_survives_cleared_inspections(self):
        # a 12-year binding pool over 200 assets: failures and replacements
        # clear queued inspections while work carries across year ends, and
        # every year end counts what the reference queue holds live
        fleet = generate_synthetic_fleet(
            SyntheticFleetSpec(
                sizes={VoltageClass.V110: 80, VoltageClass.V150: 80, VoltageClass.V220_380: 40},
                commission_years=(1965, 2000),
                seed=23,
            )
        )
        sc = dataclasses.replace(
            builtin_scenario("time-based", replications=1, master_seed=5),
            horizon_years=12,
            start_date=date(2021, 7, 1),
            resources=Constrained(fte_count=10, hours_per_fte_per_year=500.0),
        )
        engine = traced(fleet, sc)
        assert assert_matches_reference_queue(engine, fleet, sc)
        assert engine.dropped > 0

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_unconstrained_leaves_no_backlog(self, data):
        series = run_scenario(invariant_fleet(data), invariant_scenario(data)).replications[0]
        assert series.backlog_hours == [0.0] * len(series.failures)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), fte=st.integers(1, 4), more=st.integers(1, 4))
    def test_more_fte_never_leaves_more_backlog(self, data, fte, more):
        fleet = invariant_fleet(data)
        sc = invariant_scenario(data)
        # 10 person-hours a month per FTE: one replacement per FTE-tick
        ends = [
            run_scenario(
                fleet,
                dataclasses.replace(
                    sc, resources=Constrained(fte_count=n, hours_per_fte_per_year=120.0)
                ),
            ).replications[0].backlog_hours[-1]
            for n in (fte, fte + more)
        ]
        assert ends[1] <= ends[0]

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), fte=st.integers(0, 3))
    def test_capex_is_replacements_times_cost(self, data, fte):
        resources = (
            Constrained(fte_count=fte, hours_per_fte_per_year=120.0) if fte else Unconstrained()
        )
        sc = invariant_scenario(data, resources=resources)
        cost = sc.catalog.replacement(110).total_cost
        assert sc.catalog.replacement(110, corrective=True).total_cost == cost
        series = run_scenario(invariant_fleet(data), sc).replications[0]
        assert series.capex == [n * cost for n in series.replacements]

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), fte=st.sampled_from([None, 0, 1, 2, 3]))
    def test_failures_are_repaired_or_still_out(self, data, fte):
        # every failure ends in a corrective replacement or leaves its asset
        # out of service at the horizon; a failed asset fails no further.
        # Short lives make failures common; no pool (fte 0) repairs nothing.
        resources = (
            Unconstrained()
            if fte is None
            else Constrained(fte_count=fte, hours_per_fte_per_year=120.0)
        )
        life = WeibullLaw(
            beta=data.draw(st.floats(0.8, 4.0), label="beta"),
            eta=data.draw(st.floats(1.0, 8.0), label="eta"),
        )
        sc = invariant_scenario(
            data,
            resources=resources,
            failures_enabled=True,
            laws={vc: life for vc in VoltageClass},
        )
        engine = traced(invariant_fleet(data), sc)
        series = engine.series
        corrective = sum(cls == _CORRECTIVE for tick in engine.completed for cls, _ in tick)
        out_of_service = int((~in_service(engine)).sum())
        assert sum(series.failures) == corrective + out_of_service

    @settings(max_examples=60, deadline=None)
    @given(
        data=st.data(),
        failures=st.booleans(),
        hazard_age=st.sampled_from(["real", "apparent"]),
    )
    def test_open_pool_equals_a_pool_that_never_binds(self, data, failures, hazard_age):
        # The open pool runs each asset generation by generation, with no
        # clock; a constrained pool whose budget never runs out walks each
        # tick's pending requests. Both must execute the same work in
        # each year; the durations are not dyadic, so the hours show a
        # miscount. Cadence start ages need not be on the grid, and horizons
        # of up to a century hold several generations.
        import io

        fleet = invariant_fleet(data)
        drawn = invariant_scenario(
            data,
            failures_enabled=failures,
            hazard_age=hazard_age,
            horizon_years=data.draw(st.integers(1, 100), label="long horizon"),
        )
        fam = drawn.policy.families[VoltageClass.V110]
        plan = fam.inspections
        if plan is not None:
            start = data.draw(st.sampled_from([0.0, 0.1, 1 / 3, 2.55, 20.05]), label="start")
            plan = dataclasses.replace(plan, start_age_years=start)
        open_pool = dataclasses.replace(
            drawn,
            catalog=timed(data, drawn.catalog, (1.33, 0.7, 2.1, 40.0, 0.5)),
            policy=simple_policy(fam.replacement, plan),
        )
        never_binds = dataclasses.replace(open_pool, resources=NEVER_BINDS)
        outputs, engines = [], []
        for sc in (open_pool, never_binds):
            report = run_scenario(fleet, sc)
            kpis = io.StringIO()
            report.write_kpis_csv(kpis)
            outputs.append((json.dumps(report.to_json_dict()), kpis.getvalue()))
            engine = _Engine(fleet, sc)
            engine.run(0)
            engines.append(engine)
        assert outputs[0] == outputs[1]
        opened, walked = engines
        assert opened.capacity is None and walked.capacity is not None
        assert opened.executed == walked.executed
        assert opened.raised == walked.raised
        assert opened.dropped == walked.dropped
        assert opened.examined == opened.executed + opened.dropped

    @pytest.mark.parametrize("hazard_age", ["real", "apparent"])
    def test_open_pool_equals_never_binding_over_a_century(self, hazard_age):
        # 100 years of monthly ticks with a replacement every 20 years at
        # most: every asset runs through four generations or more. Start
        # ages are counted in days, the cadences start at 0.1 years (a
        # rounded 1.2 months) and the annual inspection takes 1.33 hours.
        fleet = fleet_of([
            asset(f"110-{i:05d}", commissioned=date.fromordinal(START.toordinal() - d))
            for i, d in enumerate([0, 1, 400, 3653, 9000, 12345])
        ])
        sc = scenario(
            fleet_policy=simple_policy(
                TimeBased(20.0), PeriodicInspections(start_age_years=0.1, interval_months=(3, 12))
            ),
            laws={vc: WeibullLaw(beta=2.0, eta=30.0) for vc in VoltageClass},
            failures_enabled=True,
            degradation_rates=LognormalRate(0.0, 0.2),
            hazard_age=hazard_age,
        )
        engine = open_and_walked(fleet, sc)
        assert engine.generation.min() >= 4
        assert sum(engine.series.failures) > 0


def exact_schedule(fleet, sc, rate):
    """Per tick, the assets whose planned replacement is triggered and the
    (asset, activity name) inspections raised, by `trigger_reached` and
    `inspection_due` on exact ages, for a pool that executes every request
    in its tick and assets that never fail."""
    fam = sc.policy.families[VoltageClass.V110]
    plan = fam.inspections
    trigger = getattr(fam.replacement, "age_years", None) or fam.replacement.trigger_apparent_age
    ages = [exact_age(c, sc.start_date) for c in fleet.commission.tolist()]
    planned, raised = [], []
    for k in range(sc.horizon_years * 12 // sc.tick_months):
        if k > 0:
            ages = [age + sc.tick_months for age in ages]
        planned.append([i for i, age in enumerate(ages) if trigger_reached(age, rate, trigger)])
        raised.append([
            (i, f"i{m}")
            for i, age in enumerate(ages)
            for m in plan.interval_months
            if inspection_due(age, plan, m, sc.tick_months)
        ])
        for i in planned[-1]:
            ages[i] = Fraction(0)
    return planned, raised


class TestGridClock:
    # Both engine paths against the clock rules evaluated tick by tick on
    # exact ages: start ages off the grid, any commissioning day, intervals,
    # trigger ages and trigger rates.
    @pytest.mark.parametrize("tick", VALID_TICKS)
    @settings(max_examples=40, deadline=None)
    @given(
        multiples=st.lists(st.integers(1, 5), min_size=1, max_size=3, unique=True),
        start_age=st.one_of(
            st.sampled_from([0.0, 0.1, 1 / 3, 2.55]), st.floats(0.0, 6.0)
        ),
        trigger=st.one_of(st.sampled_from([2.0, 5.5]), st.floats(0.5, 8.0)),
        rate=st.sampled_from([None, 0.7, 1.3, 2.0]),
        days=st.lists(service_days, min_size=1, max_size=4),
        horizon=st.integers(1, 8),
    )
    # 213 days old: under monthly ticks, one unit (1/16 day) short of 5.5
    # years at tick 59, so replaced at tick 60
    @example(multiples=[1], start_age=0.0, trigger=5.5, rate=None, days=[213], horizon=8)
    def test_due_and_trigger_ticks_match_exact_rules(
        self, tick, multiples, start_age, trigger, rate, days, horizon
    ):
        intervals = [tick * m for m in multiples]
        sc = cadence_scenario(tick, intervals, start_age, trigger, horizon)
        if rate is not None:
            sc = dataclasses.replace(
                sc,
                policy=simple_policy(
                    ConditionBased(trigger), sc.policy.families[VoltageClass.V110].inspections
                ),
                degradation_rates=ConstantRate(rate),
            )
        fleet = fleet_of([
            asset(f"110-{i:05d}", commissioned=date.fromordinal(START.toordinal() - d))
            for i, d in enumerate(days)
        ])
        planned, raised = exact_schedule(fleet, sc, 1.0 if rate is None else rate)
        # the tick loop, checked tick by tick; the open pool gives its KPIs
        engine = open_and_walked(fleet, sc)
        assert engine.planned == planned
        assert [got for _, _, got in engine.inspection_log] == raised
        # and the open pool's yearly counts: the inspections raised with a
        # planned replacement are dropped
        tpy = 12 // tick
        expected = [[0] * len(intervals) for _ in range(horizon)]
        for k, (due, got) in enumerate(zip(planned, raised)):
            for i, name in got:
                if i not in due:
                    expected[k // tpy][intervals.index(int(name[1:]))] += 1
        series = run_scenario(fleet, sc).replications[0]
        assert executed_per_cadence(series, len(intervals)) == expected
        assert series.replacements == [
            sum(len(due) for due in planned[y * tpy : (y + 1) * tpy]) for y in range(horizon)
        ]


class TestAllocationWork:
    def test_reads_only_what_it_walks(self):
        # A binding pool carries many inspections across year ends but
        # spends each tick's budget on the oldest of them. Reading every
        # pending request every tick would examine about 36 times the
        # requests executed or dropped here; the walk reads about twice.
        fleet = generate_synthetic_fleet(
            SyntheticFleetSpec(
                sizes={VoltageClass.V110: 80, VoltageClass.V150: 80, VoltageClass.V220_380: 40},
                commission_years=(1965, 2000),
                seed=23,
            )
        )
        sc = dataclasses.replace(
            builtin_scenario("time-based", replications=1, master_seed=5),
            horizon_years=12,
            start_date=date(2021, 7, 1),
            resources=Constrained(fte_count=10, hours_per_fte_per_year=500.0),
        )
        engine = _Engine(fleet, sc)
        series = engine.run(0)
        assert sum(b > 0 for b in series.backlog_hours) >= 3
        assert engine.executed > 0
        assert engine.examined <= 4 * (engine.executed + engine.dropped)


def rows_of_fleet(fleet: AssetTable, rows: np.ndarray) -> AssetTable:
    """The rows of `fleet` at `rows`, in that order."""
    return AssetTable(
        fleet.asset_id.take(rows),
        fleet.voltage_kv[rows],
        fleet.commission[rows],
        fleet.failure[rows],
        fleet.manufacturer.take(rows),
    )


@pytest.mark.parametrize("strategy", ["time-based", "condition-based"])
def test_open_pool_sums_over_a_partition_of_the_fleet(strategy):
    # Under an open pool no asset waits for another, and each asset's draws
    # depend on its id's bytes alone: not on where they sit in the id
    # buffer, nor on row order. So at a fixed start date a fleet's
    # per-year failures, replacements, CAPEX and OPEX, and its counts per
    # (year, activity), are the sums of those of two random halves of it,
    # each in shuffled order.
    fleet = generate_synthetic_fleet(
        SyntheticFleetSpec(
            sizes={VoltageClass.V110: 400, VoltageClass.V150: 400, VoltageClass.V220_380: 200},
            commission_years=(1982, 1986),
            seed=11,
        )
    )
    rows = np.random.default_rng(14).permutation(len(fleet))
    halves = [rows_of_fleet(fleet, part) for part in np.array_split(rows, 2)]
    sc = dataclasses.replace(
        builtin_scenario(strategy, replications=3), start_date=date(1990, 1, 1)
    )
    engines = [_Engine(part, sc) for part in (fleet, *halves)]
    for rep in range(sc.replications):
        (whole, a, b) = [(engine.run(rep), engine.replaced, engine.inspected) for engine in engines]
        for name in ("failures", "replacements", "capex", "opex"):
            assert getattr(whole[0], name) == list(
                map(operator.add, getattr(a[0], name), getattr(b[0], name))
            ), name
        assert (whole[1] == a[1] + b[1]).all()
        assert (whole[2] == a[2] + b[2]).all()
        assert sum(whole[0].failures) > 0 and whole[2].sum() > 0
