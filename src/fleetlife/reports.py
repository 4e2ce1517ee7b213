"""Simulation reports: the per-year KPIs of each replication, their
aggregates across replications, and the year-by-year comparison of two
reports.

This module needs neither numpy nor the engine, so `fleetlife report`, which
compares two report files, loads neither. `fleetlife.simulate` builds these
reports and re-exports their types.

`KpiSeries.columns` lists the KPIs once. Their JSON order (`METRICS`), kinds,
readers, writers and aggregates follow from it and the field annotations.
"""

from __future__ import annotations

import csv
import functools
import math
import operator
import sys
from dataclasses import dataclass, fields
from decimal import MAX_PREC, Context, Decimal, localcontext
from typing import IO, Optional, Sequence

from . import checked, field, known, read

__all__ = [
    "KpiSeries",
    "AggregateSeries",
    "SimulationReport",
    "ComparisonReport",
    "aggregate_replications",
    "compare_scenarios",
]

_CENT = Decimal("0.01")
_WIDE = Context(prec=MAX_PREC)


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

    def columns(self) -> dict[str, list]:
        """The per-year columns by name, in `kpis.csv` order: CAPEX, OPEX
        and their sum TOTEX, then the other fields as declared. The one
        place that reads the fields."""
        return {
            "capex": self.capex,
            "opex": self.opex,
            "totex": [c + o for c, o in zip(self.capex, self.opex)],
            "inspection_hours": self.inspection_hours,
            "unavailability_hours": self.unavailability_hours,
            "failures": self.failures,
            "replacements": self.replacements,
            "backlog_hours": self.backlog_hours,
        }

    def to_json_dict(self) -> dict:
        columns = _written(self.columns())
        out: dict = {"horizon_years": len(columns["totex"])}
        for name in METRICS:
            values = columns[name]
            out[name] = [float(v) for v in values] if _KIND[name] is Decimal else list(values)
        return out

    @classmethod
    def from_json_dict(cls, data: object, path: str, horizon: int) -> "KpiSeries":
        """The series of a `to_json_dict` object at dotted field `path`."""
        entry = known(checked(data, path, dict), ("horizon_years", *METRICS), path)
        if field(entry, "horizon_years", path, int) != horizon:
            raise ValueError(f"{path}.horizon_years: expected the report's {horizon}")
        return cls(
            **{f.name: _per_year(entry, path, f.name, horizon, _KIND[f.name]) for f in fields(cls)}
        )


# Each column's kind, in `kpis.csv` order: money for TOTEX, else that of its
# field's annotation; and the columns in JSON order: money, hours, counts.
_ANNOTATED = {"list[Decimal]": Decimal, "list[float]": float, "list[int]": int}
_KIND = dict.fromkeys(KpiSeries(*[[]] * len(fields(KpiSeries))).columns(), Decimal)
_KIND.update((f.name, _ANNOTATED[f.type]) for f in fields(KpiSeries))
METRICS = tuple(sorted(_KIND, key=lambda name: (Decimal, float, int).index(_KIND[name])))


def _written(columns: dict[str, list]) -> dict[str, list]:
    """The columns as reports write them: money rounded to the cent, in a
    context wide enough for any total."""
    with localcontext(_WIDE):
        return {
            name: [v.quantize(_CENT) for v in values] if _KIND[name] is Decimal else values
            for name, values in columns.items()
        }


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
            **{f.name: getattr(self, f.name) for f in fields(self)},
            "replications": [series.to_json_dict() for series in self.replications],
            "aggregates": {name: agg.to_json_dict() for name, agg in self.aggregates.items()},
        }

    @classmethod
    def from_json_dict(cls, data: object) -> "SimulationReport":
        """The report of a `to_json_dict` object. A malformed one raises
        ValueError naming the dotted field, such as ``aggregates.totex.mean``;
        every per-year list must hold `horizon_years` values."""
        root = known(checked(data, "report", dict), tuple(f.name for f in fields(cls)))
        horizon = field(root, "horizon_years", "", int)
        if horizon < 1:
            raise ValueError(f"horizon_years: expected at least 1, got {horizon}")
        replications = field(root, "replications", "", list)
        stats, aggregates = known(field(root, "aggregates", "", dict), METRICS, "aggregates"), {}
        for name in METRICS:
            where = f"aggregates.{name}"
            agg = known(field(stats, name, "aggregates", dict), _STATS, where)
            aggregates[name] = AggregateSeries(*(_per_year(agg, where, s, horizon) for s in _STATS))
        return read(
            cls, root, "",
            replications=[
                KpiSeries.from_json_dict(series, f"replications.{i}", horizon)
                for i, series in enumerate(replications)
            ],
            aggregates=aggregates,
        )

    def check_finite(self) -> None:
        """Raise the ValueError the reader gives for the first per-year value,
        of a series and then of an aggregate, that passes the float range."""
        named = [(f"replications.{i}", s.columns()) for i, s in enumerate(self.replications)]
        named += [(f"aggregates.{name}", agg.to_json_dict()) for name, agg in self.aggregates.items()]
        for path, columns in named:
            for key, values in columns.items():
                if not all(map(math.isfinite, values)):
                    for year, v in enumerate(values):
                        checked(float(v), f"{path}.{key}.{year}", float)

    def write_kpis_csv(self, stream: IO[str]) -> None:
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(["year", "replication", *_KIND])
        for rep_index, series in enumerate(self.replications):
            rows = zip(*_written(series.columns()).values())
            writer.writerows([year, rep_index, *row] for year, row in enumerate(rows))


# the per-year statistics of each metric's aggregate
_STATS = tuple(f.name for f in fields(AggregateSeries))


def _per_year(entry: dict, path: str, key: str, horizon: int, kind: type = float) -> list:
    """The `horizon` numbers, one a year, of field `key` of the report
    object `entry` at `path`, as `kind`: int, or a finite float, or a
    Decimal read from the float's repr. Each error names the dotted field,
    the keys and list positions from the top of the report joined by dots."""
    where, values = f"{path}.{key}", field(entry, key, path, list)
    if len(values) != horizon:
        raise ValueError(f"{where}: expected {horizon} values (horizon_years), got {len(values)}")
    numbers, most = ((int,), math.inf) if kind is int else ((int, float), sys.float_info.max)
    for i, v in enumerate(values):
        # the values JSON gives pass without a call
        if type(v) not in numbers or not -most <= v <= most:
            checked(v, f"{where}.{i}", int if kind is int else float)
    if kind is Decimal:
        return [Decimal(str(float(v))) for v in values]
    return [kind(v) for v in values]


def aggregate_replications(series: Sequence[KpiSeries]) -> dict[str, AggregateSeries]:
    """Per-year mean/p10/p90 of each KPI across replications, in floats.
    The mean adds the replications up in index order and divides by their
    count; the percentiles are those of `_percentile`."""
    if not series:
        raise ValueError("no replications to aggregate")
    columns = [s.columns() for s in series]
    if len({len(c["totex"]) for c in columns}) > 1:
        raise ValueError("replications have mismatched horizons")
    out: dict[str, AggregateSeries] = {}
    for name in METRICS:
        years = list(zip(*([float(v) for v in c[name]] for c in columns)))
        ordered = [sorted(year) for year in years]
        out[name] = AggregateSeries(
            # not `sum`, which compensates float rounding from Python 3.12 on
            mean=[functools.reduce(operator.add, year) / len(series) for year in years],
            p10=[_percentile(year, 10) for year in ordered],
            p90=[_percentile(year, 90) for year in ordered],
        )
    return out


def _percentile(ordered: Sequence[float], q: int) -> float:
    """The q-th percentile of the sorted values `ordered`, as
    ``np.percentile`` gives it by its default "linear" method, in its float
    steps: the virtual index ``(len - 1) * q / 100`` splits into a floor and
    a weight, and the two order statistics around it are interpolated from
    the nearer one."""
    last = len(ordered) - 1
    virtual = last * (q / 100)
    # from the last value on, numpy's floor index is -1 (the last value),
    # and it takes that value on both sides
    below = math.floor(virtual) if virtual < last else -1
    above = below + 1 if virtual < last else -1
    lower, upper = ordered[below], ordered[above]
    weight, diff = virtual - below, upper - lower
    if weight >= 0.5:
        return upper - diff * (1 - weight)
    return lower + diff * weight


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
