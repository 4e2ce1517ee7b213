"""Simulation reports: the per-year KPIs of each replication, their
aggregates across replications, and the year-by-year comparison of two
reports.

This module needs neither numpy nor the engine, so `fleetlife report`, which
compares two report files, loads neither. `fleetlife.simulate` builds these
reports and re-exports their types.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from decimal import Decimal
from typing import IO, Any, Optional

from . import checked

__all__ = [
    "KpiSeries",
    "AggregateSeries",
    "SimulationReport",
    "ComparisonReport",
    "compare_scenarios",
]

_CENT = Decimal("0.01")

_MONEY_METRICS = ("capex", "opex", "totex")
_FLOAT_METRICS = ("inspection_hours", "unavailability_hours", "backlog_hours")
_COUNT_METRICS = ("failures", "replacements")
METRICS = _MONEY_METRICS + _FLOAT_METRICS + _COUNT_METRICS


@dataclass
class KpiSeries:
    """Per-year KPI series for one replication."""

    capex: list[Decimal]
    opex: list[Decimal]
    inspection_hours: list[float]
    unavailability_hours: list[float]
    failures: list[int]
    replacements: list[int]
    backlog_hours: list[float]

    @classmethod
    def zeros(cls, horizon_years: int) -> "KpiSeries":
        return cls(
            capex=[Decimal(0)] * horizon_years,
            opex=[Decimal(0)] * horizon_years,
            inspection_hours=[0.0] * horizon_years,
            unavailability_hours=[0.0] * horizon_years,
            failures=[0] * horizon_years,
            replacements=[0] * horizon_years,
            backlog_hours=[0.0] * horizon_years,
        )

    @property
    def horizon_years(self) -> int:
        return len(self.capex)

    @property
    def totex(self) -> list[Decimal]:
        return [c + o for c, o in zip(self.capex, self.opex)]

    def metric(self, name: str) -> list:
        if name == "totex":
            return self.totex
        return getattr(self, name)

    def to_json_dict(self) -> dict:
        out: dict = {"horizon_years": self.horizon_years}
        for name in METRICS:
            values = self.metric(name)
            if name in _MONEY_METRICS:
                out[name] = [float(v.quantize(_CENT)) for v in values]
            else:
                out[name] = list(values)
        return out

    @classmethod
    def from_json_dict(cls, data: object, path: str, horizon: int) -> "KpiSeries":
        """The series of a `to_json_dict` object at dotted field `path`."""
        if _field(data, path, "horizon_years") != horizon:
            raise ValueError(f"{path}.horizon_years: expected the report's {horizon}")

        def per_year(name: str, kind: type = float) -> list:
            return _per_year(data, path, name, horizon, kind)

        return cls(
            capex=[Decimal(str(v)) for v in per_year("capex")],
            opex=[Decimal(str(v)) for v in per_year("opex")],
            inspection_hours=per_year("inspection_hours"),
            unavailability_hours=per_year("unavailability_hours"),
            failures=per_year("failures", int),
            replacements=per_year("replacements", int),
            backlog_hours=per_year("backlog_hours"),
        )


@dataclass(frozen=True)
class AggregateSeries:
    mean: list[float]
    p10: list[float]
    p90: list[float]

    def to_json_dict(self) -> dict:
        return {"mean": self.mean, "p10": self.p10, "p90": self.p90}


@dataclass
class SimulationReport:
    """All replications of one scenario plus cross-replication aggregates."""

    scenario_name: str
    master_seed: int
    horizon_years: int
    tick_months: int
    replications: list[KpiSeries]
    aggregates: dict[str, AggregateSeries]

    def to_json_dict(self) -> dict:
        return {
            "scenario_name": self.scenario_name,
            "master_seed": self.master_seed,
            "horizon_years": self.horizon_years,
            "tick_months": self.tick_months,
            "replications": [series.to_json_dict() for series in self.replications],
            "aggregates": {
                name: agg.to_json_dict() for name, agg in self.aggregates.items()
            },
        }

    @classmethod
    def from_json_dict(cls, data: object) -> "SimulationReport":
        """The report of a `to_json_dict` object. A malformed one raises
        ValueError naming the dotted field, such as ``aggregates.totex.mean``;
        every per-year list must hold `horizon_years` values."""
        horizon = _field(data, "", "horizon_years")
        if horizon < 1:
            raise ValueError(f"horizon_years: expected at least 1, got {horizon}")
        replications = _field(data, "", "replications", list)
        stats, aggregates = _field(data, "", "aggregates", dict), {}
        for name in METRICS:
            where, agg = f"aggregates.{name}", _field(stats, "aggregates", name, dict)
            aggregates[name] = AggregateSeries(
                *(_per_year(agg, where, stat, horizon) for stat in ("mean", "p10", "p90"))
            )
        return cls(
            scenario_name=_field(data, "", "scenario_name", str),
            master_seed=_field(data, "", "master_seed"),
            horizon_years=horizon,
            tick_months=_field(data, "", "tick_months"),
            replications=[
                KpiSeries.from_json_dict(series, f"replications.{i}", horizon)
                for i, series in enumerate(replications)
            ],
            aggregates=aggregates,
        )

    def write_kpis_csv(self, stream: IO[str]) -> None:
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(
            [
                "year",
                "replication",
                "capex",
                "opex",
                "totex",
                "inspection_hours",
                "unavailability_hours",
                "failures",
                "replacements",
                "backlog_hours",
            ]
        )
        for rep_index, series in enumerate(self.replications):
            totex = series.totex
            for year in range(series.horizon_years):
                writer.writerow(
                    [
                        year,
                        rep_index,
                        f"{series.capex[year].quantize(_CENT)}",
                        f"{series.opex[year].quantize(_CENT)}",
                        f"{totex[year].quantize(_CENT)}",
                        repr(series.inspection_hours[year]),
                        repr(series.unavailability_hours[year]),
                        series.failures[year],
                        series.replacements[year],
                        repr(series.backlog_hours[year]),
                    ]
                )


# Readers of report JSON: each error names the dotted field, the keys and
# list positions from the top of the report joined by dots.
def _field(data: object, path: str, key: str, kind: type = int) -> Any:
    where = f"{path}.{key}" if path else key
    if key not in checked(data, path or "report", dict):
        raise ValueError(f"{where}: missing")
    return checked(data[key], where, kind)


def _per_year(data: object, path: str, key: str, horizon: int, kind: type = float) -> list:
    """The `horizon` numbers, one a year, of field `key`, as `kind`."""
    where, values = f"{path}.{key}", _field(data, path, key, list)
    if len(values) != horizon:
        raise ValueError(f"{where}: expected {horizon} values (horizon_years), got {len(values)}")
    numbers = (int,) if kind is int else (int, float)
    for i, v in enumerate(values):
        if type(v) not in numbers:  # the types JSON gives pass without a call
            checked(v, f"{where}.{i}", kind)
    return [kind(v) for v in values]


@dataclass(frozen=True)
class ComparisonReport:
    """Per-year TOTEX comparison between two reports (mean across replications)."""

    totex_a_mean: list[float]
    totex_b_mean: list[float]
    delta: list[float]
    cumulative_delta: list[float]
    crossover_year: Optional[int]

    def write_csv(self, stream: IO[str]) -> None:
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(
            ["year", "totex_a_mean", "totex_b_mean", "delta", "cumulative_delta"]
        )
        for year, row in enumerate(
            zip(self.totex_a_mean, self.totex_b_mean, self.delta, self.cumulative_delta)
        ):
            writer.writerow([year, *map(repr, row)])


def compare_scenarios(a: SimulationReport, b: SimulationReport) -> ComparisonReport:
    """Per-year mean TOTEX deltas (a minus b) and the cumulative crossover year."""
    if a.horizon_years != b.horizon_years or a.tick_months != b.tick_months:
        raise ValueError(
            f"cannot compare reports with different horizons/ticks: "
            f"{a.horizon_years}y/{a.tick_months}m vs {b.horizon_years}y/{b.tick_months}m"
        )
    totex_a = a.aggregates["totex"].mean
    totex_b = b.aggregates["totex"].mean
    delta = [x - y for x, y in zip(totex_a, totex_b)]
    cumulative: list[float] = []
    running = 0.0
    for d in delta:
        running += d
        cumulative.append(running)
    crossover: Optional[int] = None
    first_sign = 0.0
    for year, value in enumerate(cumulative):
        sign = math.copysign(1.0, value) if value != 0.0 else 0.0
        if sign == 0.0:
            continue
        if first_sign == 0.0:
            first_sign = sign
        elif sign != first_sign:
            crossover = year
            break
    return ComparisonReport(
        totex_a_mean=totex_a,
        totex_b_mean=totex_b,
        delta=delta,
        cumulative_delta=cumulative,
        crossover_year=crossover,
    )
