"""Scenario configuration files and the bundled demo scenarios.

A scenario file is a JSON document mirroring the Scenario dataclass. The
validator reports the exact path of the offending field (for example
``resources.fte_count: required in constrained mode``), and rejects any
field it does not know, at every level.

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
import os
from datetime import date
from decimal import Decimal, InvalidOperation
from typing import Any, Mapping, Optional

from .fleet import VoltageClass
from .health import DEFAULT_CONDITION_TRIGGER_AGE, AhiConfig
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
            kind=ActivityKind.PLANNED_REPLACEMENT,
            duration_hours=40.0,
            required_fte=10,
            material_cost=Decimal(material),
            workforce_cost=Decimal("35000"),
        )

    light = ActivitySpec(
        name="routine-inspection",
        kind=ActivityKind.INSPECTION,
        duration_hours=0.5,
        required_fte=1,
        material_cost=Decimal("0"),
        workforce_cost=Decimal("41.624"),
    )
    detailed = ActivitySpec(
        name="detailed-inspection",
        kind=ActivityKind.INSPECTION,
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
        horizon_years=100,
        tick_months=1,
        failures_enabled=True,
        degradation_rates=LognormalRate(mu=0.0, sigma=0.2),
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


def _expect(data: Mapping, key: str, path: str) -> Any:
    if key not in data:
        raise ScenarioError(f"{_join(path, key)}: required")
    return data[key]


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _known(entry: Mapping, fields: tuple[str, ...], path: str) -> Mapping:
    """The entry itself, once every key in it is one of the known fields."""
    for key in entry:
        if key not in fields:
            raise ScenarioError(
                f"{_join(path, str(key))}: unknown field (expected one of {', '.join(fields)})"
            )
    return entry


def _as_mapping(value: Any, path: str) -> Mapping:
    if not isinstance(value, Mapping):
        raise ScenarioError(f"{path}: expected an object")
    return value


def _as_number(value: Any, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(f"{path}: expected a number")
    return float(value)


def _as_int(value: Any, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioError(f"{path}: expected an integer")
    return value


def _as_money(value: Any, path: str) -> Decimal:
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise ScenarioError(f"{path}: expected a number")
    try:
        return Decimal(str(value))
    except InvalidOperation:
        raise ScenarioError(f"{path}: not a valid amount") from None


def _family(key: str, path: str) -> VoltageClass:
    try:
        return VoltageClass(key)
    except ValueError:
        valid = ", ".join(vc.value for vc in VoltageClass)
        raise ScenarioError(f"{path}: unknown family {key!r} (expected {valid})") from None


def _parse_laws(data: Any, path: str) -> dict[VoltageClass, WeibullLaw]:
    mapping = _as_mapping(data, path)
    laws = {}
    for key, value in mapping.items():
        vc = _family(key, _join(path, key))
        entry = _known(_as_mapping(value, _join(path, key)), ("beta", "eta"), _join(path, key))
        beta = _as_number(_expect(entry, "beta", _join(path, key)), _join(path, f"{key}.beta"))
        eta = _as_number(_expect(entry, "eta", _join(path, key)), _join(path, f"{key}.eta"))
        try:
            laws[vc] = WeibullLaw(beta=beta, eta=eta)
        except ValueError as exc:
            raise ScenarioError(f"{_join(path, key)}: {exc}") from None
    return laws


def _parse_replacement(data: Any, path: str):
    entry = _as_mapping(data, path)
    kind = _expect(entry, "type", path)
    if kind == "time_based":
        _known(entry, ("type", "age_years"), path)
        age = _as_number(_expect(entry, "age_years", path), _join(path, "age_years"))
        try:
            return TimeBased(age_years=age)
        except ValueError as exc:
            raise ScenarioError(f"{_join(path, 'age_years')}: {exc}") from None
    if kind == "condition_based":
        _known(entry, ("type", "trigger_apparent_age"), path)
        age = _as_number(
            _expect(entry, "trigger_apparent_age", path),
            _join(path, "trigger_apparent_age"),
        )
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
    entry = _known(_as_mapping(data, path), ("start_age_years", "interval_months"), path)
    start = _as_number(
        _expect(entry, "start_age_years", path), _join(path, "start_age_years")
    )
    intervals = _expect(entry, "interval_months", path)
    if not isinstance(intervals, list) or not intervals:
        raise ScenarioError(f"{_join(path, 'interval_months')}: expected a non-empty list")
    months = tuple(
        _as_int(m, f"{_join(path, 'interval_months')}[{i}]")
        for i, m in enumerate(intervals)
    )
    try:
        return PeriodicInspections(start_age_years=start, interval_months=months)
    except ValueError as exc:
        raise ScenarioError(f"{path}: {exc}") from None


def _parse_policy(data: Any, path: str) -> Policy:
    mapping = _as_mapping(data, path)
    if not mapping:
        raise ScenarioError(f"{path}: at least one family policy required")
    families = {}
    for key, value in mapping.items():
        fam_path = _join(path, key)
        vc = _family(key, fam_path)
        entry = _known(_as_mapping(value, fam_path), ("replacement", "inspections"), fam_path)
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
        entry = _as_mapping(raw, entry_path)
        name = str(_expect(entry, "name", entry_path))
        kind_text = _expect(entry, "kind", entry_path)
        if kind_text not in _ACTIVITY_KINDS:
            raise ScenarioError(
                f"{_join(entry_path, 'kind')}: expected one of "
                f"{sorted(_ACTIVITY_KINDS)}, got {kind_text!r}"
            )
        kind = _ACTIVITY_KINDS[kind_text]
        _known(
            entry,
            _ACTIVITY_FIELDS + (("interval_months",) if kind is ActivityKind.INSPECTION else ()),
            entry_path,
        )
        kv = _as_int(_expect(entry, "voltage_kv", entry_path), _join(entry_path, "voltage_kv"))
        try:
            spec = ActivitySpec(
                name=name,
                kind=kind,
                duration_hours=_as_number(
                    _expect(entry, "duration_hours", entry_path),
                    _join(entry_path, "duration_hours"),
                ),
                required_fte=_as_int(
                    _expect(entry, "required_fte", entry_path),
                    _join(entry_path, "required_fte"),
                ),
                material_cost=_as_money(
                    _expect(entry, "material_cost", entry_path),
                    _join(entry_path, "material_cost"),
                ),
                workforce_cost=_as_money(
                    _expect(entry, "workforce_cost", entry_path),
                    _join(entry_path, "workforce_cost"),
                ),
            )
        except ValueError as exc:
            raise ScenarioError(f"{entry_path}: {exc}") from None
        if kind is ActivityKind.INSPECTION:
            interval = _as_int(
                _expect(entry, "interval_months", entry_path),
                _join(entry_path, "interval_months"),
            )
            inspections[(kv, interval)] = spec
        elif kind is ActivityKind.PLANNED_REPLACEMENT:
            replacements[kv] = spec
        else:
            corrective[kv] = spec
    return ActivityCatalog(
        replacements=replacements, inspections=inspections, corrective=corrective
    )


def _parse_resources(data: Any, path: str):
    entry = _as_mapping(data, path)
    mode = _expect(entry, "mode", path)
    if mode == "unconstrained":
        _known(entry, ("mode",), path)
        return Unconstrained()
    if mode == "constrained":
        _known(entry, ("mode", "fte_count", "hours_per_fte_per_year"), path)
        if "fte_count" not in entry:
            raise ScenarioError(f"{_join(path, 'fte_count')}: required in constrained mode")
        if "hours_per_fte_per_year" not in entry:
            raise ScenarioError(
                f"{_join(path, 'hours_per_fte_per_year')}: required in constrained "
                "mode (no default in scenario files)"
            )
        try:
            return Constrained(
                fte_count=_as_int(entry["fte_count"], _join(path, "fte_count")),
                hours_per_fte_per_year=_as_number(
                    entry["hours_per_fte_per_year"],
                    _join(path, "hours_per_fte_per_year"),
                ),
            )
        except ValueError as exc:
            raise ScenarioError(f"{path}: {exc}") from None
    raise ScenarioError(
        f"{_join(path, 'mode')}: expected 'unconstrained' or 'constrained', got {mode!r}"
    )


def _parse_rates(data: Any, path: str):
    if data is None:
        return ConstantRate()
    entry = _as_mapping(data, path)
    kind = _expect(entry, "kind", path)
    if kind == "constant":
        _known(entry, ("kind", "value"), path)
        value = _as_number(entry.get("value", 1.0), _join(path, "value"))
        if value <= 0:
            raise ScenarioError(f"{_join(path, 'value')}: must be positive")
        return ConstantRate(value=value)
    if kind == "lognormal":
        _known(entry, ("kind", "mu", "sigma"), path)
        try:
            return LognormalRate(
                mu=_as_number(entry.get("mu", 0.0), _join(path, "mu")),
                sigma=_as_number(entry.get("sigma", 0.2), _join(path, "sigma")),
            )
        except ValueError as exc:
            raise ScenarioError(f"{path}: {exc}") from None
    raise ScenarioError(
        f"{_join(path, 'kind')}: expected 'constant' or 'lognormal', got {kind!r}"
    )


_AHI_FIELDS = (
    "short_window", "long_window", "probability_bands", "age_fractions", "young_age_cutoff",
    "use_apparent_age",
)


def _parse_ahi(data: Any, path: str) -> AhiConfig:
    if data is None:
        return AhiConfig()
    entry = _known(_as_mapping(data, path), _AHI_FIELDS, path)
    bands = entry.get("probability_bands", [0.8, 0.5, 0.2])
    if not isinstance(bands, list) or len(bands) != 3:
        raise ScenarioError(
            f"{_join(path, 'probability_bands')}: expected three descending levels"
        )
    fractions = entry.get("age_fractions", [0.75, 0.60])
    if not isinstance(fractions, list) or len(fractions) != 2:
        raise ScenarioError(
            f"{_join(path, 'age_fractions')}: expected two descending fractions"
        )
    try:
        return AhiConfig(
            short_window=_as_number(
                entry.get("short_window", 3.0), _join(path, "short_window")
            ),
            long_window=_as_number(
                entry.get("long_window", 7.0), _join(path, "long_window")
            ),
            probability_bands=tuple(
                _as_number(v, f"{_join(path, 'probability_bands')}[{i}]")
                for i, v in enumerate(bands)
            ),
            age_fractions=tuple(
                _as_number(v, f"{_join(path, 'age_fractions')}[{i}]")
                for i, v in enumerate(fractions)
            ),
            young_age_cutoff=_as_number(
                entry.get("young_age_cutoff", 5.0), _join(path, "young_age_cutoff")
            ),
            use_apparent_age=bool(entry.get("use_apparent_age", True)),
        )
    except ValueError as exc:
        raise ScenarioError(f"{path}: {exc}") from None


_SCENARIO_FIELDS = (
    "name", "horizon_years", "tick_months", "start_date", "master_seed", "replications",
    "failures_enabled", "hazard_age", "degradation_rates", "ahi", "laws", "policy",
    "activities", "resources",
)


def scenario_from_dict(data: Mapping) -> Scenario:
    root = _known(_as_mapping(data, "scenario"), _SCENARIO_FIELDS, "")
    name = str(_expect(root, "name", ""))
    laws = _parse_laws(_expect(root, "laws", ""), "laws")
    policy = _parse_policy(_expect(root, "policy", ""), "policy")
    catalog = _parse_activities(_expect(root, "activities", ""), "activities")
    resources = _parse_resources(_expect(root, "resources", ""), "resources")
    rates = _parse_rates(root.get("degradation_rates"), "degradation_rates")
    ahi = _parse_ahi(root.get("ahi"), "ahi")

    start_date: Optional[date] = None
    if root.get("start_date") is not None:
        try:
            start_date = date.fromisoformat(str(root["start_date"]))
        except ValueError:
            raise ScenarioError(
                f"start_date: malformed date {root['start_date']!r}"
            ) from None

    hazard_age = root.get("hazard_age", "real")
    try:
        return Scenario(
            name=name,
            laws=laws,
            policy=policy,
            catalog=catalog,
            resources=resources,
            horizon_years=_as_int(root.get("horizon_years", 100), "horizon_years"),
            tick_months=_as_int(root.get("tick_months", 1), "tick_months"),
            start_date=start_date,
            failures_enabled=bool(root.get("failures_enabled", True)),
            degradation_rates=rates,
            hazard_age=str(hazard_age),
            replications=_as_int(root.get("replications", 1), "replications"),
            master_seed=_as_int(root.get("master_seed", 0), "master_seed"),
            ahi=ahi,
        )
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
        "ahi": {
            "short_window": scenario.ahi.short_window,
            "long_window": scenario.ahi.long_window,
            "probability_bands": list(scenario.ahi.probability_bands),
            "age_fractions": list(scenario.ahi.age_fractions),
            "young_age_cutoff": scenario.ahi.young_age_cutoff,
            "use_apparent_age": scenario.ahi.use_apparent_age,
        },
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
