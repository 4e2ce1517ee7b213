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
from typing import IO, Mapping, Optional

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

    horizon_years: int
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
            horizon_years=horizon_years,
            capex=[Decimal(0)] * horizon_years,
            opex=[Decimal(0)] * horizon_years,
            inspection_hours=[0.0] * horizon_years,
            unavailability_hours=[0.0] * horizon_years,
            failures=[0] * horizon_years,
            replacements=[0] * horizon_years,
            backlog_hours=[0.0] * horizon_years,
        )

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
    def from_json_dict(cls, data: Mapping) -> "KpiSeries":
        horizon = int(data["horizon_years"])
        return cls(
            horizon_years=horizon,
            capex=[Decimal(str(v)) for v in data["capex"]],
            opex=[Decimal(str(v)) for v in data["opex"]],
            inspection_hours=[float(v) for v in data["inspection_hours"]],
            unavailability_hours=[float(v) for v in data["unavailability_hours"]],
            failures=[int(v) for v in data["failures"]],
            replacements=[int(v) for v in data["replacements"]],
            backlog_hours=[float(v) for v in data["backlog_hours"]],
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
    def from_json_dict(cls, data: Mapping) -> "SimulationReport":
        replications = [KpiSeries.from_json_dict(d) for d in data["replications"]]
        return cls(
            scenario_name=str(data["scenario_name"]),
            master_seed=int(data["master_seed"]),
            horizon_years=int(data["horizon_years"]),
            tick_months=int(data["tick_months"]),
            replications=replications,
            aggregates={
                name: AggregateSeries(
                    mean=[float(v) for v in agg["mean"]],
                    p10=[float(v) for v in agg["p10"]],
                    p90=[float(v) for v in agg["p90"]],
                )
                for name, agg in data["aggregates"].items()
            },
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


@dataclass(frozen=True)
class ComparisonReport:
    """Per-year TOTEX comparison between two reports (mean across replications)."""

    years: list[int]
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
        for i, year in enumerate(self.years):
            writer.writerow(
                [
                    year,
                    repr(self.totex_a_mean[i]),
                    repr(self.totex_b_mean[i]),
                    repr(self.delta[i]),
                    repr(self.cumulative_delta[i]),
                ]
            )


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
        years=list(range(a.horizon_years)),
        totex_a_mean=totex_a,
        totex_b_mean=totex_b,
        delta=delta,
        cumulative_delta=cumulative,
        crossover_year=crossover,
    )
