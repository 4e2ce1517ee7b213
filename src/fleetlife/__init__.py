"""Fleet aging analysis from right-censored failure records and
maintenance strategy simulation.

The public names and the submodules are imported on first access (PEP 562),
so a command that estimates laws never loads the simulation engine.
"""

import importlib

__version__ = "0.1.0"

_KINDS = {
    dict: "an object",
    list: "a list",
    str: "a string",
    int: "an integer",
    float: "a number",
    bool: "true or false",
}


def checked(value: object, where: str, kind: type):
    """`value` if it is a `kind` (`float` takes any JSON number), and a bool
    only where `kind` is bool; else a ValueError naming field `where`. Every
    reader of JSON input checks its values here, so that none loads a module
    only for it."""
    kinds = (int, float) if kind is float else kind
    if not isinstance(value, kinds) or (isinstance(value, bool) and kind is not bool):
        raise ValueError(f"{where}: expected {_KINDS[kind]}, got {type(value).__name__}")
    return value


def known(entry: dict, fields: tuple[str, ...], where: str = "") -> dict:
    """`entry` once each of its keys is one of `fields`; else a ValueError
    naming the first other key as a field of `where`."""
    for key in entry:
        if key not in fields:
            field = f"{where}.{key}" if where else key
            raise ValueError(f"{field}: unknown field (expected one of {', '.join(fields)})")
    return entry


# public names by the submodule that defines them, in `__all__` order
_EXPORTS = {
    "fleet": (
        "AssetTable",
        "DataError",
        "LifetimeTable",
        "SyntheticFleetSpec",
        "VoltageClass",
        "build_lifetime_table",
        "draw_failures",
        "generate_synthetic_fleet",
        "parse_asset_csv",
        "write_asset_csv",
    ),
    "survival": ("UNBOUNDED", "SurvivalCurve", "km_fit"),
    "weibull": (
        "REFERENCE_LAWS",
        "FitDiagnostics",
        "FitError",
        "WeibullLaw",
        "fit_weibull_mle",
        "fit_weibull_rank_regression",
    ),
    "health": (
        "Band",
        "ScoreBasis",
        "age_scores",
        "probability_scores",
        "score_asset",
        "threshold_age",
    ),
    "simulate": (
        "ActivityCatalog",
        "ActivityKind",
        "ActivitySpec",
        "ConditionBased",
        "ConstantRate",
        "Constrained",
        "FamilyPolicy",
        "LognormalRate",
        "PeriodicInspections",
        "Policy",
        "Scenario",
        "TimeBased",
        "Unconstrained",
        "run_scenario",
    ),
    "reports": ("KpiSeries", "SimulationReport", "aggregate_replications", "compare_scenarios"),
    "scenarios": (
        "ScenarioError",
        "builtin_scenario",
        "load_scenario_file",
        "resolve_scenario",
        "scenario_from_dict",
        "scenario_to_dict",
    ),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = ("cli", *_EXPORTS)

__all__ = ["__version__", *_SOURCE]


def __getattr__(name: str):
    if name in _SOURCE:
        value = getattr(importlib.import_module(f".{_SOURCE[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
