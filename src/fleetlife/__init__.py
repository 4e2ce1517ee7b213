"""Fleet aging analysis from right-censored failure records and
maintenance strategy simulation.

The public names and the submodules are imported on first access (PEP 562),
so a command that estimates laws never loads the simulation engine. This
module also holds the one reader of JSON input: every scenario, law file,
synth spec and report is read by `checked`, `known`, `field` and `read`, so
that each names a malformed field by its dotted path in one way. And it
holds `sha256`, the digest of manifest files and asset keys: hashlib's
bytes from the interpreter's own module, which maps no OpenSSL.
"""

import importlib
import sys

try:  # Python 3.10-3.11
    import _sha256 as _sha
except ImportError:
    try:  # Python 3.12+
        import _sha2 as _sha
    except ImportError:  # a build with neither, as hashlib itself falls back
        import hashlib as _sha
sha256 = _sha.sha256

__version__ = "0.1.0"

_KINDS = {
    dict: "an object",
    list: "a list",
    str: "a string",
    int: "an integer",
    float: "a number",
    bool: "true or false",
}


def _at(where: str, key: str) -> str:
    return f"{where}.{key}" if where else key


def checked(value: object, where: str, kind: type):
    """`value` read as a `kind`, else a ValueError naming field `where`. A
    bool is read only where `kind` is bool. `float` takes a finite JSON
    number and gives a float: Python's json also reads NaN, Infinity and
    integers past the float range, which are refused. Any other `kind` is
    money (`decimal.Decimal`), read exactly from a number or a decimal
    string, and refused past the float range too."""
    if kind not in _KINDS:
        from decimal import Decimal, InvalidOperation

        if isinstance(value, bool) or not isinstance(value, (int, float, str)):
            raise ValueError(f"{where}: expected a number")
        try:
            amount = Decimal(str(value))
        except InvalidOperation:
            raise ValueError(f"{where}: not a valid amount") from None
        if not amount.is_finite():
            raise ValueError(f"{where}: not a finite amount")
        if abs(amount) > sys.float_info.max:
            raise ValueError(f"{where}: amount past the float range, got {value}")
        return amount
    kinds = (int, float) if kind is float else kind
    if not isinstance(value, kinds) or (isinstance(value, bool) and kind is not bool):
        raise ValueError(f"{where}: expected {_KINDS[kind]}, got {type(value).__name__}")
    if kind is not float:
        return value
    if not -sys.float_info.max <= value <= sys.float_info.max:
        raise ValueError(f"{where}: expected a finite number, got {value}")
    return float(value)


def known(entry: dict, fields: tuple[str, ...], where: str = "") -> dict:
    """`entry` once each of its keys is one of `fields`; else a ValueError
    naming the first other key as a field of `where`."""
    for key in entry:
        if key not in fields:
            raise ValueError(f"{_at(where, key)}: unknown field (expected one of {', '.join(fields)})")
    return entry


_REQUIRED = object()


def field(entry: dict, key: str, where: str, kind: type, default: object = _REQUIRED):
    """Field `key` of the JSON object `entry` at dotted path `where`, read
    by `checked` as a `kind`; `default` where the entry leaves it out, and
    where it has none, a ValueError naming the field as required."""
    if key in entry:
        return checked(entry[key], _at(where, key), kind)
    if default is _REQUIRED:
        raise ValueError(f"{_at(where, key)}: required")
    return default


def read(cls: type, entry: dict, where: str, **given):
    """The dataclass `cls` of the JSON object `entry` at dotted path
    `where`. Each field of `cls` annotated int, float, bool, str or Decimal
    is read by `field`: one with no default is required, and one the entry
    leaves out keeps its default. Every other field is `given`. The checks
    of `cls` name their field first, so a failing one is reported at
    `where.<field>`."""
    import dataclasses
    from decimal import Decimal

    scalars = {"int": int, "float": float, "bool": bool, "str": str, "Decimal": Decimal}
    for f in dataclasses.fields(cls):
        if f.type in scalars and (f.name in entry or f.default is dataclasses.MISSING):
            given[f.name] = field(entry, f.name, where, scalars[f.type])
    try:
        return cls(**given)
    except ValueError as exc:
        raise ValueError(_at(where, str(exc))) from None


# public names by the submodule that defines them, in `__all__` order
_EXPORTS = {
    "fleet": (
        "AssetTable",
        "DataError",
        "LifetimeTable",
        "SyntheticFleetSpec",
        "TextColumn",
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
