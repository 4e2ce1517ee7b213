"""Scenario configuration files and the bundled demo scenarios.

A scenario file is a JSON document read and written from the fields of the
Scenario dataclass and of those it holds; a field it leaves out keeps the
dataclass default. In a tagged object, a `type`, `mode` or `kind` string
picks the class. Every error names the dotted path of its field, a check of
the dataclass itself included (``resources.mode: required``,
``laws.110.beta: shape must be positive, got -6.0``), and a field the
reader does not know is rejected at every level.

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

import dataclasses
import json
import os
from collections.abc import Mapping
from datetime import date
from decimal import Decimal
from functools import partial
from typing import Any, Callable, Optional

from . import checked, field, known, read
from .fleet import VoltageClass, iso_date
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
# apparent age (years) at which the condition-based demo replaces 110/150 kV
# assets: the red-onset threshold in common use. health.threshold_age derives
# law-consistent alternatives (about 48 and 58 years for the bundled
# reference laws at the 7-year/20% level; see README).
CONDITION_TRIGGER_AGE = 50.0
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
        replacement_110_150 = ConditionBased(trigger_apparent_age=CONDITION_TRIGGER_AGE)
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


def _fields(cls: type) -> tuple[str, ...]:
    return tuple(f.name for f in dataclasses.fields(cls))


# the class of each tagged object, by its tag key and the tag's value
_TAGGED = {
    "type": {"time_based": TimeBased, "condition_based": ConditionBased},
    "mode": {"unconstrained": Unconstrained, "constrained": Constrained},
    "kind": {"constant": ConstantRate, "lognormal": LognormalRate},
}


def _tagged(entry: dict, path: str, tag: str) -> Any:
    """The object `entry` at `path` whose string `tag` picks its class; it
    may give the fields of that class and nothing else."""
    value, classes = field(entry, tag, path, str), _TAGGED[tag]
    if value not in classes:
        raise ScenarioError(f"{path}.{tag}: expected {' or '.join(map(repr, classes))}, got {value!r}")
    cls = classes[value]
    return read(cls, known(entry, (tag, *_fields(cls)), path), path)


def _by_family(data: dict, path: str, cls: type, parse: Callable[[dict, str], Any]) -> dict:
    """The family-keyed object `data` at `path`, whose entries give the
    fields of `cls`, each read by `parse(entry, path)`."""
    families = {}
    for key, value in data.items():
        where = f"{path}.{key}"
        vc = VoltageClass.named(key, where)
        families[vc] = parse(known(checked(value, where, dict), _fields(cls), where), where)
    return families


def _parse_inspections(data: Any, path: str) -> Optional[PeriodicInspections]:
    if data is None:
        return None
    entry = known(checked(data, path, dict), _fields(PeriodicInspections), path)
    months = tuple(
        checked(m, f"{path}.interval_months[{i}]", int)
        for i, m in enumerate(field(entry, "interval_months", path, list))
    )
    return read(PeriodicInspections, entry, path, interval_months=months)


def _family_policy(entry: dict, path: str) -> FamilyPolicy:
    replacement = _tagged(field(entry, "replacement", path, dict), f"{path}.replacement", "type")
    inspections = _parse_inspections(entry.get("inspections"), f"{path}.inspections")
    return FamilyPolicy(replacement=replacement, inspections=inspections)


def _parse_policy(data: dict, path: str) -> Policy:
    if not data:
        raise ScenarioError(f"{path}: at least one family policy required")
    return Policy(families=_by_family(data, path, FamilyPolicy, _family_policy))


_ACTIVITY_KINDS = {kind.value: kind for kind in ActivityKind}


def _parse_activities(data: list, path: str) -> ActivityCatalog:
    """The catalog of a list of activity entries: each gives the fields of
    its ActivitySpec, its `kind` and `voltage_kv`, and an inspection its
    `interval_months` cadence too."""
    if not data:
        raise ScenarioError(f"{path}: expected a non-empty list of activities")
    tables: dict[ActivityKind, dict] = {kind: {} for kind in ActivityKind}
    for i, raw in enumerate(data):
        entry_path = f"{path}[{i}]"
        entry = checked(raw, entry_path, dict)
        kind_text = field(entry, "kind", entry_path, str)
        if kind_text not in _ACTIVITY_KINDS:
            raise ScenarioError(
                f"{entry_path}.kind: expected one of {sorted(_ACTIVITY_KINDS)}, got {kind_text!r}"
            )
        kind = _ACTIVITY_KINDS[kind_text]
        inspection = kind is ActivityKind.INSPECTION
        slot = ("kind", "voltage_kv", *(("interval_months",) if inspection else ()))
        known(entry, slot + _fields(ActivitySpec), entry_path)
        key = field(entry, "voltage_kv", entry_path, int)
        if inspection:
            key = (key, field(entry, "interval_months", entry_path, int))
        tables[kind][key] = read(ActivitySpec, entry, entry_path)
    return ActivityCatalog(
        replacements=tables[ActivityKind.PLANNED_REPLACEMENT],
        inspections=tables[ActivityKind.INSPECTION],
        corrective=tables[ActivityKind.CORRECTIVE_REPLACEMENT],
    )


# a scenario file's fields: those of Scenario, with the catalog given as
# a list of activities
_SCENARIO_FIELDS = tuple("activities" if f == "catalog" else f for f in _fields(Scenario))


def scenario_from_dict(data: dict) -> Scenario:
    """The scenario of a JSON object; a ScenarioError names the first field
    that is missing, unknown or malformed. A field the object leaves out, or
    gives as null where null means none, keeps its Scenario default."""
    try:
        root = known(checked(data, "scenario", dict), _SCENARIO_FIELDS)
        given = {}
        if root.get("degradation_rates") is not None:
            rates = checked(root["degradation_rates"], "degradation_rates", dict)
            given["degradation_rates"] = _tagged(rates, "degradation_rates", "kind")
        if root.get("start_date") is not None:
            given["start_date"] = iso_date(root["start_date"], "start_date")
        return read(
            Scenario, root, "",
            laws=_by_family(field(root, "laws", "", dict), "laws", WeibullLaw, partial(read, WeibullLaw)),
            policy=_parse_policy(field(root, "policy", "", dict), "policy"),
            catalog=_parse_activities(field(root, "activities", "", list), "activities"),
            resources=_tagged(field(root, "resources", "", dict), "resources", "mode"),
            **given,
        )
    except ValueError as exc:
        raise ScenarioError(str(exc)) from None


def scenario_to_dict(scenario: Scenario) -> dict:
    """Inverse of scenario_from_dict, usable as a starting template: the
    fields of Scenario in order, each written by `_written`."""
    return {
        key: _written(getattr(scenario, f.name))
        for key, f in zip(_SCENARIO_FIELDS, dataclasses.fields(Scenario))
    }


def _written(value: Any) -> Any:
    """`value` as a scenario file writes it: a dataclass as its fields, led
    by its tag if it has one; a policy as its families, keyed as every
    family-keyed mapping by family name; the catalog as its activities."""
    if isinstance(value, ActivityCatalog):
        return _activities(value)
    if isinstance(value, Policy):
        value = value.families
    if dataclasses.is_dataclass(value):
        tag = [(t, v) for t, classes in _TAGGED.items() for v, cls in classes.items() if cls is type(value)]
        return dict(tag, **{name: _written(getattr(value, name)) for name in _fields(type(value))})
    if isinstance(value, Mapping):
        return {vc.value: _written(v) for vc, v in value.items()}
    for kind, write in ((tuple, list), (date, date.isoformat), (Decimal, _money)):
        if isinstance(value, kind):
            return write(value)
    return value


def _activities(catalog: ActivityCatalog) -> list[dict]:
    """The catalog's activity entries, planned replacements, then corrective
    ones and inspections, each by key: the spec's name, its slot (kind and
    voltage), its other fields, then an inspection's cadence."""
    entries = []
    for kind, table in (
        (ActivityKind.PLANNED_REPLACEMENT, catalog.replacements),
        (ActivityKind.CORRECTIVE_REPLACEMENT, catalog.corrective),
        (ActivityKind.INSPECTION, catalog.inspections),
    ):
        for key, spec in sorted(table.items()):
            kv, *cadence = key if kind is ActivityKind.INSPECTION else (key,)
            name, *rest = _written(spec).items()
            slot = [("kind", kind.value), ("voltage_kv", kv)]
            entries.append(dict([name, *slot, *rest, *zip(("interval_months",), cadence)]))
    return entries


def _money(amount: Decimal) -> float | str:
    """`amount` as a JSON number if that number reads back as the same
    amount, else as its decimal string, which `checked` reads exactly."""
    number = float(amount)
    return number if Decimal(repr(number)) == amount else str(amount)
