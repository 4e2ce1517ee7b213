"""Scenario configuration files and the bundled demo scenarios.

A scenario file is a JSON document mirroring the Scenario dataclass; a field
it leaves out keeps the dataclass default. The validator reports the exact
path of the offending field (for example ``resources.fte_count: required``),
and rejects any field it does not know, at every level.

Two demo strategies are bundled, each available with an unconstrained pool
or with 40 or 60 full-time workers:

* ``time-based``: every family replaced at a fixed 45-year real age.
* ``condition-based``: 110/150 kV replaced when the apparent age crosses 50
  years (red-or-worse onset); 220/380 kV stay time-based.

Both run monthly ticks over a 100-year horizon, inspect 110/150 kV assets
every 3, 6 and 12 months from age 25 (nothing for 220/380 kV), and draw
per-asset degradation rates from a lognormal with median 1.
"""

from __future__ import annotations

import json
import math
import os
from decimal import Decimal, InvalidOperation
from typing import Any, Optional

from . import checked, known
from .fleet import VoltageClass, iso_date
from .health import DEFAULT_CONDITION_TRIGGER_AGE
from .simulate import (
    ActivityCatalog,
    ActivityKind,
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
from .weibull import REFERENCE_LAWS, WeibullLaw

__all__ = [
    "ScenarioError",
    "scenario_from_dict",
    "scenario_to_dict",
    "load_scenario_file",
    "builtin_scenario",
    "resolve_scenario",
    "BUILTIN_STRATEGIES",
    "BUILTIN_RESOURCES",
    "demo_catalog",
]

BUILTIN_STRATEGIES = ("time-based", "condition-based")
BUILTIN_RESOURCES = ("unconstrained", "fte40", "fte60")

DESIGN_LIFE_YEARS = 45.0
INSPECTION_START_AGE = 25.0
INSPECTION_INTERVALS = (3, 6, 12)


class ScenarioError(ValueError):
    """Scenario configuration problem, message prefixed with the field path."""


def demo_catalog() -> ActivityCatalog:
    """Activity catalog used by the bundled scenarios.

    Replacements are a 40-hour, 10-worker job whose material cost depends on
    the voltage. The quarterly and semi-annual cadences run the light
    inspection, the annual cadence the detailed one.
    """
    def replacement(kv: int, material: str) -> ActivitySpec:
        return ActivitySpec(
            name=f"replacement-{kv}kv",
            duration_hours=40.0,
            required_fte=10,
            material_cost=Decimal(material),
            workforce_cost=Decimal("35000"),
        )

    light = ActivitySpec(
        name="routine-inspection",
        duration_hours=0.5,
        required_fte=1,
        material_cost=Decimal("0"),
        workforce_cost=Decimal("41.624"),
    )
    detailed = ActivitySpec(
        name="detailed-inspection",
        duration_hours=1.33,
        required_fte=2,
        material_cost=Decimal("49.81"),
        workforce_cost=Decimal("180.18"),
    )
    replacements = {
        110: replacement(110, "8211"),
        150: replacement(150, "10044"),
        220: replacement(220, "15000"),
        380: replacement(380, "15000"),
    }
    inspections = {}
    for kv in (110, 150):
        inspections[(kv, 3)] = light
        inspections[(kv, 6)] = light
        inspections[(kv, 12)] = detailed
    return ActivityCatalog(replacements=replacements, inspections=inspections)


def _demo_policy(strategy: str) -> Policy:
    inspected = PeriodicInspections(
        start_age_years=INSPECTION_START_AGE, interval_months=INSPECTION_INTERVALS
    )
    time_based = TimeBased(age_years=DESIGN_LIFE_YEARS)
    if strategy == "time-based":
        replacement_110_150: TimeBased | ConditionBased = time_based
    else:
        replacement_110_150 = ConditionBased(
            trigger_apparent_age=DEFAULT_CONDITION_TRIGGER_AGE
        )
    return Policy(
        families={
            VoltageClass.V110: FamilyPolicy(
                replacement=replacement_110_150, inspections=inspected
            ),
            VoltageClass.V150: FamilyPolicy(
                replacement=replacement_110_150, inspections=inspected
            ),
            VoltageClass.V220_380: FamilyPolicy(
                replacement=time_based, inspections=None
            ),
        }
    )


def builtin_scenario(
    strategy: str,
    resources: str = "unconstrained",
    replications: int = 5,
    master_seed: int = 1,
) -> Scenario:
    if strategy not in BUILTIN_STRATEGIES:
        raise ScenarioError(
            f"unknown strategy {strategy!r}; expected one of {BUILTIN_STRATEGIES}"
        )
    if resources not in BUILTIN_RESOURCES:
        raise ScenarioError(
            f"unknown resource model {resources!r}; expected one of {BUILTIN_RESOURCES}"
        )
    pool = {
        "unconstrained": Unconstrained(),
        "fte40": Constrained(fte_count=40, hours_per_fte_per_year=1600.0),
        "fte60": Constrained(fte_count=60, hours_per_fte_per_year=1600.0),
    }[resources]
    return Scenario(
        name=f"{strategy}:{resources}",
        laws=dict(REFERENCE_LAWS),
        policy=_demo_policy(strategy),
        catalog=demo_catalog(),
        resources=pool,
        degradation_rates=LognormalRate(),
        replications=replications,
        master_seed=master_seed,
    )


def resolve_scenario(name_or_path: str) -> Scenario:
    """Load a scenario from a JSON file path or a builtin name.

    Builtin names look like ``time-based`` or ``condition-based:fte40``;
    the resource suffix defaults to unconstrained.
    """
    if os.path.exists(name_or_path):
        return load_scenario_file(name_or_path)
    strategy, _, resources = name_or_path.partition(":")
    if strategy in BUILTIN_STRATEGIES:
        return builtin_scenario(strategy, resources or "unconstrained")
    raise ScenarioError(
        f"{name_or_path!r} is neither a scenario file nor a builtin name "
        f"({', '.join(BUILTIN_STRATEGIES)}, optionally ':<resources>' with "
        f"one of {BUILTIN_RESOURCES})"
    )


def load_scenario_file(path: str) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}: invalid JSON: {exc}") from None
    except OSError as exc:
        raise ScenarioError(f"{path}: cannot read scenario file ({exc.strerror})") from None
    return scenario_from_dict(data)


# ---------------------------------------------------------------------------
# Dict <-> Scenario with path-precise validation
# ---------------------------------------------------------------------------


def _expect(data: dict, key: str, path: str) -> Any:
    if key not in data:
        raise ScenarioError(f"{_join(path, key)}: required")
    return data[key]


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _get(entry: dict, key: str, path: str, kind: type) -> Any:
    """Required field `key` of the entry at `path`, checked as a `kind`; a
    number is read as a float and must be finite (JSON's NaN and Infinity
    are not)."""
    value = checked(_expect(entry, key, path), _join(path, key), kind)
    if kind is float:
        try:
            value = float(value)
        except OverflowError:  # an integer beyond the float range
            value = math.inf
        if not math.isfinite(value):
            raise ScenarioError(f"{_join(path, key)}: expected a finite number, got {value}")
    return value


def _given(entry: dict, path: str, fields: dict[str, type]) -> dict:
    """Those of `fields` (name: kind) that the entry at `path` gives, read
    by `_get`; each field it leaves out keeps its dataclass default."""
    return {key: _get(entry, key, path, kind) for key, kind in fields.items() if key in entry}


def _as_money(value: Any, path: str) -> Decimal:
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise ScenarioError(f"{path}: expected a number")
    try:
        amount = Decimal(str(value))
    except InvalidOperation:
        raise ScenarioError(f"{path}: not a valid amount") from None
    if not amount.is_finite():
        raise ScenarioError(f"{path}: not a finite amount")
    return amount


def _parse_laws(data: Any, path: str) -> dict[VoltageClass, WeibullLaw]:
    laws = {}
    for key, value in checked(data, path, dict).items():
        law_path = _join(path, key)
        vc = VoltageClass.named(key, law_path)
        entry = known(checked(value, law_path, dict), ("beta", "eta"), law_path)
        beta = _get(entry, "beta", law_path, float)
        eta = _get(entry, "eta", law_path, float)
        try:
            laws[vc] = WeibullLaw(beta=beta, eta=eta)
        except ValueError as exc:
            raise ScenarioError(f"{law_path}: {exc}") from None
    return laws


def _parse_replacement(data: Any, path: str):
    entry = checked(data, path, dict)
    kind = _expect(entry, "type", path)
    if kind == "time_based":
        known(entry, ("type", "age_years"), path)
        age = _get(entry, "age_years", path, float)
        try:
            return TimeBased(age_years=age)
        except ValueError as exc:
            raise ScenarioError(f"{_join(path, 'age_years')}: {exc}") from None
    if kind == "condition_based":
        known(entry, ("type", "trigger_apparent_age"), path)
        age = _get(entry, "trigger_apparent_age", path, float)
        try:
            return ConditionBased(trigger_apparent_age=age)
        except ValueError as exc:
            raise ScenarioError(f"{_join(path, 'trigger_apparent_age')}: {exc}") from None
    raise ScenarioError(
        f"{_join(path, 'type')}: expected 'time_based' or 'condition_based', got {kind!r}"
    )


def _parse_inspections(data: Any, path: str) -> Optional[PeriodicInspections]:
    if data is None:
        return None
    entry = known(checked(data, path, dict), ("start_age_years", "interval_months"), path)
    start = _get(entry, "start_age_years", path, float)
    intervals = _expect(entry, "interval_months", path)
    if not isinstance(intervals, list) or not intervals:
        raise ScenarioError(f"{_join(path, 'interval_months')}: expected a non-empty list")
    months = tuple(
        checked(m, f"{_join(path, 'interval_months')}[{i}]", int)
        for i, m in enumerate(intervals)
    )
    try:
        return PeriodicInspections(start_age_years=start, interval_months=months)
    except ValueError as exc:
        raise ScenarioError(f"{path}: {exc}") from None


def _parse_policy(data: Any, path: str) -> Policy:
    mapping = checked(data, path, dict)
    if not mapping:
        raise ScenarioError(f"{path}: at least one family policy required")
    families = {}
    for key, value in mapping.items():
        fam_path = _join(path, key)
        vc = VoltageClass.named(key, fam_path)
        entry = known(checked(value, fam_path, dict), ("replacement", "inspections"), fam_path)
        replacement = _parse_replacement(
            _expect(entry, "replacement", fam_path), _join(fam_path, "replacement")
        )
        inspections = _parse_inspections(
            entry.get("inspections"), _join(fam_path, "inspections")
        )
        families[vc] = FamilyPolicy(replacement=replacement, inspections=inspections)
    return Policy(families=families)


_ACTIVITY_KINDS = {kind.value: kind for kind in ActivityKind}
_ACTIVITY_FIELDS = (
    "name", "kind", "voltage_kv", "duration_hours", "required_fte", "material_cost",
    "workforce_cost",
)


def _parse_activities(data: Any, path: str) -> ActivityCatalog:
    if not isinstance(data, list) or not data:
        raise ScenarioError(f"{path}: expected a non-empty list of activities")
    replacements: dict[int, ActivitySpec] = {}
    corrective: dict[int, ActivitySpec] = {}
    inspections: dict[tuple[int, int], ActivitySpec] = {}
    for i, raw in enumerate(data):
        entry_path = f"{path}[{i}]"
        entry = checked(raw, entry_path, dict)
        name = _get(entry, "name", entry_path, str)
        kind_text = _get(entry, "kind", entry_path, str)
        if kind_text not in _ACTIVITY_KINDS:
            raise ScenarioError(
                f"{_join(entry_path, 'kind')}: expected one of "
                f"{sorted(_ACTIVITY_KINDS)}, got {kind_text!r}"
            )
        kind = _ACTIVITY_KINDS[kind_text]
        known(
            entry,
            _ACTIVITY_FIELDS + (("interval_months",) if kind is ActivityKind.INSPECTION else ()),
            entry_path,
        )
        kv = _get(entry, "voltage_kv", entry_path, int)
        hours = _get(entry, "duration_hours", entry_path, float)
        fte = _get(entry, "required_fte", entry_path, int)
        costs = [
            _as_money(_expect(entry, key, entry_path), _join(entry_path, key))
            for key in ("material_cost", "workforce_cost")
        ]
        try:
            spec = ActivitySpec(name, hours, fte, *costs)
        except ValueError as exc:
            raise ScenarioError(f"{entry_path}: {exc}") from None
        if kind is ActivityKind.INSPECTION:
            inspections[(kv, _get(entry, "interval_months", entry_path, int))] = spec
        elif kind is ActivityKind.PLANNED_REPLACEMENT:
            replacements[kv] = spec
        else:
            corrective[kv] = spec
    return ActivityCatalog(
        replacements=replacements, inspections=inspections, corrective=corrective
    )


def _parse_resources(data: Any, path: str):
    entry = checked(data, path, dict)
    mode = _expect(entry, "mode", path)
    if mode == "unconstrained":
        known(entry, ("mode",), path)
        return Unconstrained()
    if mode == "constrained":
        known(entry, ("mode", "fte_count", "hours_per_fte_per_year"), path)
        fte_count = _get(entry, "fte_count", path, int)
        hours = _get(entry, "hours_per_fte_per_year", path, float)
        try:
            return Constrained(fte_count=fte_count, hours_per_fte_per_year=hours)
        except ValueError as exc:
            raise ScenarioError(f"{path}: {exc}") from None
    raise ScenarioError(
        f"{_join(path, 'mode')}: expected 'unconstrained' or 'constrained', got {mode!r}"
    )


def _parse_rates(data: Any, path: str):
    entry = checked(data, path, dict)
    kind = _expect(entry, "kind", path)
    if kind == "constant":
        known(entry, ("kind", "value"), path)
        given = _given(entry, path, {"value": float})
        try:
            return ConstantRate(**given)
        except ValueError as exc:
            raise ScenarioError(f"{_join(path, 'value')}: {exc}") from None
    if kind == "lognormal":
        known(entry, ("kind", "mu", "sigma"), path)
        given = _given(entry, path, {"mu": float, "sigma": float})
        try:
            return LognormalRate(**given)
        except ValueError as exc:
            raise ScenarioError(f"{path}: {exc}") from None
    raise ScenarioError(
        f"{_join(path, 'kind')}: expected 'constant' or 'lognormal', got {kind!r}"
    )


# the optional scalar fields of a scenario file and their kinds
_SCENARIO_SCALARS = {
    "horizon_years": int, "tick_months": int, "failures_enabled": bool, "hazard_age": str,
    "replications": int, "master_seed": int,
}
_SCENARIO_FIELDS = (
    "name", "start_date", "degradation_rates", "laws", "policy", "activities", "resources",
    *_SCENARIO_SCALARS,
)


def scenario_from_dict(data: dict) -> Scenario:
    """The scenario of a JSON object; a ScenarioError names the first field
    that is missing, unknown or malformed. A field the object leaves out, or
    gives as null where null means none, keeps its Scenario default."""
    try:
        root = known(checked(data, "scenario", dict), _SCENARIO_FIELDS)
        fields = {
            "name": _get(root, "name", "", str),
            "laws": _parse_laws(_expect(root, "laws", ""), "laws"),
            "policy": _parse_policy(_expect(root, "policy", ""), "policy"),
            "catalog": _parse_activities(_expect(root, "activities", ""), "activities"),
            "resources": _parse_resources(_expect(root, "resources", ""), "resources"),
        }
        if root.get("degradation_rates") is not None:
            fields["degradation_rates"] = _parse_rates(root["degradation_rates"], "degradation_rates")
        if root.get("start_date") is not None:
            fields["start_date"] = iso_date(root["start_date"], "start_date")
        return Scenario(**fields, **_given(root, "", _SCENARIO_SCALARS))
    except ValueError as exc:
        raise ScenarioError(str(exc)) from None


def scenario_to_dict(scenario: Scenario) -> dict:
    """Inverse of scenario_from_dict, usable as a starting template."""
    activities = []
    for kv, spec in sorted(scenario.catalog.replacements.items()):
        activities.append(_spec_dict(spec, ActivityKind.PLANNED_REPLACEMENT, kv))
    for kv, spec in sorted(scenario.catalog.corrective.items()):
        activities.append(_spec_dict(spec, ActivityKind.CORRECTIVE_REPLACEMENT, kv))
    for (kv, interval), spec in sorted(scenario.catalog.inspections.items()):
        entry = _spec_dict(spec, ActivityKind.INSPECTION, kv)
        entry["interval_months"] = interval
        activities.append(entry)

    policy = {}
    for vc, fam in scenario.policy.families.items():
        if isinstance(fam.replacement, TimeBased):
            replacement = {"type": "time_based", "age_years": fam.replacement.age_years}
        else:
            replacement = {
                "type": "condition_based",
                "trigger_apparent_age": fam.replacement.trigger_apparent_age,
            }
        inspections = None
        if fam.inspections is not None:
            inspections = {
                "start_age_years": fam.inspections.start_age_years,
                "interval_months": list(fam.inspections.interval_months),
            }
        policy[vc.value] = {"replacement": replacement, "inspections": inspections}

    if isinstance(scenario.resources, Unconstrained):
        resources: dict = {"mode": "unconstrained"}
    else:
        resources = {
            "mode": "constrained",
            "fte_count": scenario.resources.fte_count,
            "hours_per_fte_per_year": scenario.resources.hours_per_fte_per_year,
        }

    if isinstance(scenario.degradation_rates, ConstantRate):
        rates: dict = {"kind": "constant", "value": scenario.degradation_rates.value}
    else:
        rates = {
            "kind": "lognormal",
            "mu": scenario.degradation_rates.mu,
            "sigma": scenario.degradation_rates.sigma,
        }

    return {
        "name": scenario.name,
        "horizon_years": scenario.horizon_years,
        "tick_months": scenario.tick_months,
        "start_date": scenario.start_date.isoformat() if scenario.start_date else None,
        "master_seed": scenario.master_seed,
        "replications": scenario.replications,
        "failures_enabled": scenario.failures_enabled,
        "hazard_age": scenario.hazard_age,
        "degradation_rates": rates,
        "laws": {
            vc.value: {"beta": law.beta, "eta": law.eta}
            for vc, law in scenario.laws.items()
        },
        "policy": policy,
        "activities": activities,
        "resources": resources,
    }


def _spec_dict(spec: ActivitySpec, kind: ActivityKind, kv: int) -> dict:
    return {
        "name": spec.name,
        "kind": kind.value,
        "voltage_kv": kv,
        "duration_hours": spec.duration_hours,
        "required_fte": spec.required_fte,
        "material_cost": float(spec.material_cost),
        "workforce_cost": float(spec.workforce_cost),
    }
