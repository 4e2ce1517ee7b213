import dataclasses
import json
import math
import re
import types
from datetime import date
from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fleetlife.fleet import VoltageClass
from fleetlife.scenarios import (
    BUILTIN_RESOURCES,
    BUILTIN_STRATEGIES,
    ScenarioError,
    builtin_scenario,
    load_scenario_file,
    resolve_scenario,
    scenario_from_dict,
    scenario_to_dict,
)
from fleetlife.simulate import (
    VALID_TICKS,
    ActivityCatalog,
    ActivitySpec,
    ConditionBased,
    ConstantRate,
    Constrained,
    FamilyPolicy,
    LognormalRate,
    PeriodicInspections,
    Policy,
    Scenario,
    TimeBased,
    Unconstrained,
)
from fleetlife.weibull import WeibullLaw


class TestBuiltins:
    def test_time_based_shape(self):
        sc = builtin_scenario("time-based")
        assert sc.name == "time-based:unconstrained"
        assert sc.horizon_years == 100 and sc.tick_months == 1
        assert isinstance(sc.resources, Unconstrained)
        for vc in VoltageClass:
            assert sc.policy.families[vc].replacement == TimeBased(45.0)
        assert sc.policy.families[VoltageClass.V220_380].inspections is None
        plan = sc.policy.families[VoltageClass.V110].inspections
        assert plan.start_age_years == 25.0
        assert plan.interval_months == (3, 6, 12)

    def test_condition_based_shape(self):
        sc = builtin_scenario("condition-based", "fte40")
        assert isinstance(sc.resources, Constrained)
        assert sc.resources.fte_count == 40
        assert sc.resources.hours_per_fte_per_year == 1600.0
        assert sc.policy.families[VoltageClass.V110].replacement == ConditionBased(50.0)
        assert sc.policy.families[VoltageClass.V220_380].replacement == TimeBased(45.0)

    def test_both_strategies_share_world_model(self):
        a = builtin_scenario("time-based")
        b = builtin_scenario("condition-based")
        assert a.laws == b.laws
        assert a.degradation_rates == b.degradation_rates == LognormalRate(0.0, 0.2)
        assert a.master_seed == b.master_seed

    def test_resolve_names(self):
        assert resolve_scenario("condition-based:fte60").resources.fte_count == 60
        assert isinstance(resolve_scenario("time-based").resources, Unconstrained)

    def test_resolve_unknown(self):
        with pytest.raises(ScenarioError, match="neither a scenario file nor"):
            resolve_scenario("age-based")
        with pytest.raises(ScenarioError, match="unknown resource model"):
            resolve_scenario("time-based:fte99")


class TestRoundTrip:
    @pytest.mark.parametrize("strategy", ["time-based", "condition-based"])
    @pytest.mark.parametrize("resources", ["unconstrained", "fte40"])
    def test_dict_round_trip(self, strategy, resources):
        sc = builtin_scenario(strategy, resources)
        clone = scenario_from_dict(scenario_to_dict(sc))
        assert clone.name == sc.name
        assert clone.laws == sc.laws
        assert clone.policy == sc.policy
        assert clone.resources == sc.resources
        assert clone.degradation_rates == sc.degradation_rates
        assert clone.catalog.replacements == sc.catalog.replacements
        assert clone.catalog.inspections == sc.catalog.inspections

    def test_file_round_trip(self, tmp_path):
        sc = builtin_scenario("time-based", "fte40")
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario_to_dict(sc)))
        assert load_scenario_file(str(path)).resources == sc.resources

    @pytest.mark.parametrize("strategy", BUILTIN_STRATEGIES)
    @pytest.mark.parametrize("resources", BUILTIN_RESOURCES)
    def test_every_builtin_round_trips_through_json(self, strategy, resources):
        # the form in which scenario files are written, read back
        sc = builtin_scenario(strategy, resources)
        data = json.loads(json.dumps(scenario_to_dict(sc)))
        clone = scenario_from_dict(data)
        for field in dataclasses.fields(sc):
            if field.name != "catalog":
                assert getattr(clone, field.name) == getattr(sc, field.name), field.name
        for table in ("replacements", "inspections", "corrective"):
            # ActivitySpec equality compares the money as exact Decimals
            assert getattr(clone.catalog, table) == getattr(sc.catalog, table)
        assert scenario_to_dict(clone) == data

    @pytest.mark.parametrize("amount", ["0.12345678901234567", str(2**53 + 1)])
    def test_money_a_double_cannot_carry_round_trips(self, amount):
        # such an amount is written as its decimal string, not as a number
        data = valid_dict()
        data["activities"][0]["material_cost"] = amount
        loaded = scenario_from_dict(data)
        clone = scenario_from_dict(json.loads(json.dumps(scenario_to_dict(loaded))))
        tables = ("replacements", "inspections", "corrective")
        costs = [spec.material_cost for t in tables for spec in getattr(clone.catalog, t).values()]
        assert Decimal(amount) in costs
        for table in tables:
            assert getattr(clone.catalog, table) == getattr(loaded.catalog, table)

    def test_directory_is_not_a_scenario_file(self, tmp_path):
        with pytest.raises(ScenarioError, match=f"^{re.escape(str(tmp_path))}: cannot read"):
            resolve_scenario(str(tmp_path))

    def test_invalid_json_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        with pytest.raises(ScenarioError, match="invalid JSON"):
            load_scenario_file(str(path))


positive = st.floats(0.01, 1e4)
# Money a double cannot carry is written to JSON as a decimal string, so
# amounts of any precision round-trip.
money = st.decimals(0, 10**20, allow_nan=False, allow_infinity=False)
voltages = st.one_of(st.sampled_from([110, 150, 220, 380]), st.integers(1, 1000))


@st.composite
def activity(draw):
    return ActivitySpec(
        name=draw(st.text(max_size=8)),
        duration_hours=draw(st.floats(0.0, 1e3)),
        required_fte=draw(st.integers(1, 20)),
        material_cost=draw(money),
        workforce_cost=draw(money),
    )


@st.composite
def family_policy(draw):
    replacement = draw(
        st.one_of(st.builds(TimeBased, positive), st.builds(ConditionBased, positive))
    )
    inspections = draw(
        st.one_of(
            st.none(),
            st.builds(
                PeriodicInspections,
                st.floats(0.0, 100.0),
                st.lists(st.integers(1, 240), min_size=1, max_size=4).map(tuple),
            ),
        )
    )
    return FamilyPolicy(replacement=replacement, inspections=inspections)


@st.composite
def scenarios(draw):
    families = st.sampled_from(list(VoltageClass))
    catalog = ActivityCatalog(
        replacements=draw(
            st.dictionaries(voltages, activity(), min_size=1, max_size=3)
        ),
        inspections=draw(
            st.dictionaries(
                st.tuples(voltages, st.integers(1, 240)),
                activity(),
                max_size=3,
            )
        ),
        corrective=draw(
            st.dictionaries(voltages, activity(), max_size=2)
        ),
    )
    return Scenario(
        name=draw(st.text(max_size=12)),
        laws=draw(st.dictionaries(families, st.builds(WeibullLaw, positive, positive))),
        policy=Policy(draw(st.dictionaries(families, family_policy(), min_size=1))),
        catalog=catalog,
        resources=draw(
            st.one_of(
                st.just(Unconstrained()),
                st.builds(Constrained, st.integers(0, 500), positive),
            )
        ),
        horizon_years=draw(st.integers(1, 200)),
        tick_months=draw(st.sampled_from(VALID_TICKS)),
        start_date=draw(st.one_of(st.none(), st.dates(date(1900, 1, 1), date(2100, 1, 1)))),
        failures_enabled=draw(st.booleans()),
        degradation_rates=draw(
            st.one_of(
                st.builds(ConstantRate, positive),
                st.builds(LognormalRate, st.floats(-3.0, 3.0), st.floats(0.0, 3.0)),
            )
        ),
        hazard_age=draw(st.sampled_from(["real", "apparent"])),
        replications=draw(st.integers(1, 100)),
        master_seed=draw(st.integers(0, 2**63)),
    )


@given(scenarios())
@settings(max_examples=150, deadline=None)
def test_generated_scenarios_round_trip_through_json(sc):
    data = json.loads(json.dumps(scenario_to_dict(sc)))
    clone = scenario_from_dict(data)
    for field in dataclasses.fields(sc):
        if field.name != "catalog":
            assert getattr(clone, field.name) == getattr(sc, field.name), field.name
    for table in ("replacements", "inspections", "corrective"):
        original, parsed = getattr(sc.catalog, table), getattr(clone.catalog, table)
        assert parsed == original
        for key, spec in original.items():
            for cost in ("material_cost", "workforce_cost"):
                assert isinstance(getattr(parsed[key], cost), Decimal)
                assert getattr(parsed[key], cost) == getattr(spec, cost)
    assert scenario_to_dict(clone) == data


def valid_dict() -> dict:
    return scenario_to_dict(builtin_scenario("time-based", "fte40"))


class TestValidationPaths:
    def test_missing_resources(self):
        data = valid_dict()
        del data["resources"]
        with pytest.raises(ScenarioError, match="^resources: required"):
            scenario_from_dict(data)

    def test_constrained_requires_fte_count(self):
        data = valid_dict()
        data["resources"] = {"mode": "constrained", "hours_per_fte_per_year": 1600}
        with pytest.raises(ScenarioError, match="^resources.fte_count: required"):
            scenario_from_dict(data)

    def test_constrained_requires_hours(self):
        data = valid_dict()
        data["resources"] = {"mode": "constrained", "fte_count": 40}
        with pytest.raises(
            ScenarioError, match="^resources.hours_per_fte_per_year: required"
        ):
            scenario_from_dict(data)

    def test_bad_resource_mode(self):
        data = valid_dict()
        data["resources"] = {"mode": "infinite"}
        with pytest.raises(ScenarioError, match="^resources.mode: expected"):
            scenario_from_dict(data)

    def test_unknown_family(self):
        data = valid_dict()
        data["laws"]["400"] = {"beta": 2.0, "eta": 50.0}
        with pytest.raises(ScenarioError, match="^laws.400: unknown family"):
            scenario_from_dict(data)

    def test_law_missing_eta(self):
        data = valid_dict()
        del data["laws"]["110"]["eta"]
        with pytest.raises(ScenarioError, match="^laws.110.eta: required"):
            scenario_from_dict(data)

    def test_bad_activity_kind_with_index(self):
        data = valid_dict()
        data["activities"][0]["kind"] = "overhaul"
        with pytest.raises(ScenarioError, match=r"^activities\[0\].kind: expected"):
            scenario_from_dict(data)

    def test_activity_kind_must_be_a_string(self):
        data = valid_dict()
        data["activities"][0]["kind"] = ["inspection"]
        with pytest.raises(ScenarioError, match=r"^activities\[0\].kind: expected a string, got list$"):
            scenario_from_dict(data)

    def test_activity_negative_cost(self):
        data = valid_dict()
        data["activities"][0]["material_cost"] = -5
        with pytest.raises(ScenarioError, match=r"^activities\[0\]"):
            scenario_from_dict(data)

    def test_bad_replacement_type(self):
        data = valid_dict()
        data["policy"]["110"]["replacement"] = {"type": "usage_based"}
        with pytest.raises(
            ScenarioError, match=r"^policy.110.replacement.type: expected"
        ):
            scenario_from_dict(data)

    def test_empty_inspection_intervals(self):
        data = valid_dict()
        data["policy"]["110"]["inspections"]["interval_months"] = []
        with pytest.raises(
            ScenarioError,
            match=r"^policy.110.inspections.interval_months: expected a non-empty",
        ):
            scenario_from_dict(data)

    def test_bad_tick(self):
        data = valid_dict()
        data["tick_months"] = 5
        with pytest.raises(ScenarioError, match="tick must be one of"):
            scenario_from_dict(data)

    # the horizon's tick count must fit the engine's int32 tick columns
    # (2**31 - 1 ticks); these are only loaded, never run
    @pytest.mark.parametrize(
        "tick, years",
        [(1, 10**400), (1, 178956971), (12, 10**400), (12, 2**31), (1, 0), (1, -5)],
    )
    def test_horizon_must_fit_the_tick_columns(self, tick, years):
        data = valid_dict()
        data.update(tick_months=tick, horizon_years=years)
        with pytest.raises(ScenarioError, match="^horizon_years: "):
            scenario_from_dict(data)

    @pytest.mark.parametrize("tick, years", [(1, 178956970), (12, 2**31 - 1)])
    def test_longest_horizon_loads(self, tick, years):
        data = valid_dict()
        data.update(tick_months=tick, horizon_years=years)
        assert scenario_from_dict(data).horizon_years * (12 // tick) <= 2**31 - 1

    def test_bad_start_date(self):
        data = valid_dict()
        data["start_date"] = "July 2021"
        with pytest.raises(ScenarioError, match="^start_date: malformed"):
            scenario_from_dict(data)

    @pytest.mark.parametrize("value", [20200101, "20200101", "2020-1-1", "2020-01-01T00:00", ["2020-01-01"]])
    def test_start_date_must_be_yyyy_mm_dd(self, value):
        # Python 3.11's fromisoformat reads the basic format 20200101 too;
        # the scenario reads exactly YYYY-MM-DD on every version
        data = valid_dict()
        data["start_date"] = value
        with pytest.raises(ScenarioError, match=r"^start_date: malformed date .*\(expected YYYY-MM-DD\)$"):
            scenario_from_dict(data)
        data["start_date"] = "2020-01-01"
        assert scenario_from_dict(data).start_date == date(2020, 1, 1)

    @pytest.mark.parametrize("value", [5, {"a": 1}, None, True])
    def test_names_must_be_strings(self, value):
        data = valid_dict()
        data["name"] = value
        got = type(value).__name__
        with pytest.raises(ScenarioError, match=f"^name: expected a string, got {got}$"):
            scenario_from_dict(data)
        data = valid_dict()
        data["activities"][1]["name"] = value
        with pytest.raises(ScenarioError, match=rf"^activities\[1\].name: expected a string, got {got}$"):
            scenario_from_dict(data)

    @pytest.mark.parametrize("value", ["false", "no", 0, 1, None])
    def test_failures_enabled_must_be_a_boolean(self, value):
        data = valid_dict()
        data["failures_enabled"] = value
        got = type(value).__name__
        with pytest.raises(ScenarioError, match=f"^failures_enabled: expected true or false, got {got}$"):
            scenario_from_dict(data)

    def test_bad_rate_kind(self):
        data = valid_dict()
        data["degradation_rates"] = {"kind": "uniform"}
        with pytest.raises(ScenarioError, match="^degradation_rates.kind: expected"):
            scenario_from_dict(data)

    @pytest.mark.parametrize("value", [0.0, -1.5, float("nan"), float("inf")])
    def test_non_positive_constant_rate(self, value):
        # ConstantRate holds the rule that a rate is positive and finite; the
        # reader refuses NaN and Infinity in every number field before it
        reason = "rate must be positive and finite" if math.isfinite(value) else "expected a finite"
        data = valid_dict()
        data["degradation_rates"] = {"kind": "constant", "value": value}
        with pytest.raises(ScenarioError, match=f"^degradation_rates.value: {reason}"):
            scenario_from_dict(data)

    def test_scenario_must_be_a_json_object(self):
        # a scenario is read from JSON, so any other mapping is refused too
        with pytest.raises(ScenarioError, match="^scenario: expected an object, got mappingproxy$"):
            scenario_from_dict(types.MappingProxyType(valid_dict()))

    def test_money_parsed_exactly(self):
        from decimal import Decimal

        sc = scenario_from_dict(valid_dict())
        assert sc.catalog.inspections[(110, 3)].workforce_cost == Decimal("41.624")


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "field, value",
    [
        ("resources.hours_per_fte_per_year", NAN),
        ("policy.110.replacement.age_years", NAN),
        ("policy.110.inspections.start_age_years", INF),
        ("degradation_rates.sigma", NAN),
        ("degradation_rates.mu", INF),
        ("laws.150.eta", -INF),
        # an integer literal beyond the float range
        pytest.param("laws.110.beta", 10**400, id="laws.110.beta-10**400"),
        ("activities[0].material_cost", "NaN"),
        ("activities[0].material_cost", "Infinity"),
        ("activities[2].workforce_cost", NAN),
        ("activities[3].duration_hours", NAN),
    ],
)
def test_non_finite_numbers_rejected_with_path(tmp_path, field, value):
    # Python's json reads the literals NaN, Infinity and -Infinity; a scenario
    # file holding a number that is not finite as a float, or a money string
    # that spells one, fails naming it
    data = valid_dict()
    *keys, last = re.findall(r"\w+", field)
    entry = data
    for key in keys:
        entry = entry[int(key)] if isinstance(entry, list) else entry[key]
    entry[last] = value
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data))
    reason = "not a finite amount" if field.endswith("_cost") else "expected a finite number"
    with pytest.raises(ScenarioError, match=f"^{re.escape(field)}: {reason}"):
        load_scenario_file(str(path))


class TestDefaultsStatedOnce:
    """A field a scenario file leaves out takes its dataclass default."""

    def test_required_fields_alone(self):
        sc = builtin_scenario("condition-based", "fte40")
        expected = Scenario(
            name=sc.name, laws=sc.laws, policy=sc.policy, catalog=sc.catalog, resources=sc.resources
        )
        data = scenario_to_dict(expected)
        required = ("name", "laws", "policy", "activities", "resources")
        loaded = scenario_from_dict({key: data[key] for key in required})
        for field in dataclasses.fields(Scenario):
            if field.name != "catalog":
                assert getattr(loaded, field.name) == getattr(expected, field.name), field.name
        assert scenario_to_dict(loaded) == data

    @pytest.mark.parametrize("rates", [None, {"kind": "constant"}])
    def test_constant_rate(self, rates):
        data = valid_dict()
        data["degradation_rates"] = rates
        assert scenario_from_dict(data).degradation_rates == ConstantRate()

    def test_lognormal_rate(self):
        data = valid_dict()
        data["degradation_rates"] = {"kind": "lognormal"}
        assert scenario_from_dict(data).degradation_rates == LognormalRate()


class TestUnknownFields:
    @pytest.mark.parametrize(
        "edit, path",
        [
            (lambda d: d.update(horizon_year=30), "horizon_year"),
            (lambda d: d["laws"]["110"].update(shape=2.0), "laws.110.shape"),
            (lambda d: d["policy"]["150"].update(budget=1), "policy.150.budget"),
            (
                lambda d: d["policy"]["110"]["replacement"].update(age_year=40),
                "policy.110.replacement.age_year",
            ),
            (
                lambda d: d["policy"]["110"]["inspections"].update(start_age=20),
                "policy.110.inspections.start_age",
            ),
            (
                lambda d: d["activities"][0].update(interval_months=3),
                r"activities\[0\].interval_months",
            ),
            (lambda d: d["activities"][-1].update(colour="red"), r"activities\[\d+\].colour"),
            (lambda d: d["resources"].update(fte=40), "resources.fte"),
            (lambda d: d["degradation_rates"].update(median=1.0), "degradation_rates.median"),
            (lambda d: d.update(ahi={"short_window": 3.0}), "ahi"),
        ],
    )
    def test_rejected_with_path(self, edit, path):
        data = valid_dict()
        edit(data)
        with pytest.raises(ScenarioError, match=f"^{path}: unknown field"):
            scenario_from_dict(data)

    def test_unconstrained_takes_no_pool_fields(self):
        data = valid_dict()
        data["resources"] = {"mode": "unconstrained", "fte_count": 40}
        with pytest.raises(ScenarioError, match="^resources.fte_count: unknown field"):
            scenario_from_dict(data)

    def test_constant_rate_takes_no_lognormal_fields(self):
        data = valid_dict()
        data["degradation_rates"] = {"kind": "constant", "value": 1.0, "sigma": 0.2}
        with pytest.raises(ScenarioError, match="^degradation_rates.sigma: unknown field"):
            scenario_from_dict(data)
