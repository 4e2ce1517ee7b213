"""Monte-Carlo fleet simulation under replacement and inspection policies.

The clock advances in monthly ticks. Each tick: failures are sampled from the
family reliability laws, policy triggers raise activity requests, and a
resource pool executes requests in priority order (corrective replacements,
then planned replacements, then inspections; FIFO by request tick then
asset_id within a class). Activities are atomic within a tick; a request
that does not fit the capacity left in the tick carries over with its
original timestamp, and later requests may still use what is left.

Failure sampling draws from the cumulative-hazard difference over the tick,
``1 - exp(-(H(a + t) - H(a)))`` for real age ``a`` and tick length ``t``.
With ``hazard_age="apparent"`` both ends are apparent ages, so an asset with
degradation rate ``r`` uses ``1 - exp(-(H(r(a + t)) - H(ra)))``.

Triggers: a failed asset requests its corrective replacement and nothing
else. An in-service asset requests a planned replacement once its real age
(time-based) or its apparent age ``r * a`` (condition-based) reaches the
trigger, and an inspection at each cadence for which
``age >= start and (age - start) % interval < tick``, ages in months. The
cadence is anchored to the start age, so it restarts after a replacement
resets the age.

Completion: a replacement books material plus workforce cost as CAPEX,
resets the age to 0 and draws a fresh degradation rate; an inspection books
its cost as OPEX and its duration as inspection hours. Every activity's
duration is unavailability, and a failed asset also books the whole span
from its failure tick to the tick its corrective replacement executes.

The engine (`_Engine`) runs one replication on arrays, and the work of its
inspection and allocation steps follows what a tick raises and executes
rather than fleet size or backlog length:

* Inspections keep one next-check tick per (asset, cadence). A check
  applies the cadence rule to the float age the engine holds, and books
  the next tick at which that rule can hold; a replacement books the
  asset's cadences again from age 0.
* Each priority class is a FIFO queue held as parallel int arrays (asset,
  activity, asset generation at request time). Allocation reads a queue
  from its head in windows of doubling width, drops the stale entries of
  the windows it reads, and stops once the budget is below the smallest
  activity that can enter the class; the unread rest stays as it is.

Determinism contract: every replication seeds one RNG stream per asset from
(master_seed, replication_index, asset_id), and each asset consumes exactly
one uniform per tick for failure sampling plus a separate stream for
degradation-rate draws. Results are therefore independent of iteration and
scheduling order, including parallel execution of replications.
"""

from __future__ import annotations

import csv
import enum
import hashlib
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from datetime import date
from decimal import Decimal
from typing import IO, Callable, Mapping, Optional, Sequence, Union

import numpy as np

from .fleet import DAYS_PER_YEAR, FAMILIES, AssetTable, VoltageClass
from .weibull import WeibullLaw

__all__ = [
    "HOURS_PER_MONTH",
    "CatalogError",
    "ActivityKind",
    "ActivitySpec",
    "ActivityCatalog",
    "TimeBased",
    "ConditionBased",
    "PeriodicInspections",
    "FamilyPolicy",
    "Policy",
    "Unconstrained",
    "Constrained",
    "ConstantRate",
    "LognormalRate",
    "Scenario",
    "KpiSeries",
    "AggregateSeries",
    "SimulationReport",
    "ComparisonReport",
    "run_scenario",
    "aggregate_replications",
    "compare_scenarios",
]

HOURS_PER_MONTH = 365.25 * 24.0 / 12.0

_CENT = Decimal("0.01")

VALID_TICKS = (1, 2, 3, 4, 6, 12)


class CatalogError(ValueError):
    """An activity the policy can request is missing from the catalog."""


class ActivityKind(enum.Enum):
    INSPECTION = "inspection"
    PLANNED_REPLACEMENT = "planned_replacement"
    CORRECTIVE_REPLACEMENT = "corrective_replacement"


@dataclass(frozen=True)
class ActivitySpec:
    """One maintenance activity with its workload and cost breakdown."""

    name: str
    kind: ActivityKind
    duration_hours: float
    required_fte: int
    material_cost: Decimal
    workforce_cost: Decimal

    def __post_init__(self) -> None:
        if self.duration_hours < 0:
            raise ValueError(f"activity {self.name!r}: negative duration")
        if self.required_fte < 1:
            raise ValueError(f"activity {self.name!r}: required_fte must be >= 1")
        if self.material_cost < 0 or self.workforce_cost < 0:
            raise ValueError(f"activity {self.name!r}: negative cost")

    @property
    def person_hours(self) -> float:
        return self.duration_hours * self.required_fte

    @property
    def total_cost(self) -> Decimal:
        return self.material_cost + self.workforce_cost


class ActivityCatalog:
    """Activity lookup keyed by kind and voltage (plus cadence for inspections).

    Corrective replacements fall back to the planned-replacement entry of the
    same voltage when no dedicated corrective entry exists.
    """

    def __init__(
        self,
        replacements: Mapping[int, ActivitySpec],
        inspections: Mapping[tuple[int, int], ActivitySpec] | None = None,
        corrective: Mapping[int, ActivitySpec] | None = None,
    ):
        self.replacements = dict(replacements)
        self.inspections = dict(inspections or {})
        self.corrective = dict(corrective or {})

    def replacement(self, voltage_kv: int, corrective: bool = False) -> ActivitySpec:
        if corrective and voltage_kv in self.corrective:
            return self.corrective[voltage_kv]
        try:
            return self.replacements[voltage_kv]
        except KeyError:
            kind = (
                ActivityKind.CORRECTIVE_REPLACEMENT
                if corrective
                else ActivityKind.PLANNED_REPLACEMENT
            )
            raise CatalogError(
                f"no {kind.value} activity for {voltage_kv} kV"
            ) from None

    def inspection(self, voltage_kv: int, interval_months: int) -> ActivitySpec:
        try:
            return self.inspections[(voltage_kv, interval_months)]
        except KeyError:
            raise CatalogError(
                f"no inspection activity for {voltage_kv} kV "
                f"at {interval_months}-month cadence"
            ) from None


@dataclass(frozen=True)
class TimeBased:
    """Replace at a fixed real age."""

    age_years: float

    def __post_init__(self) -> None:
        if self.age_years <= 0:
            raise ValueError("trigger age must be positive")


@dataclass(frozen=True)
class ConditionBased:
    """Replace when the apparent age crosses a threshold."""

    trigger_apparent_age: float

    def __post_init__(self) -> None:
        if self.trigger_apparent_age <= 0:
            raise ValueError("trigger apparent age must be positive")


@dataclass(frozen=True)
class PeriodicInspections:
    start_age_years: float
    interval_months: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.interval_months:
            raise ValueError("periodic inspection plan needs at least one interval")
        if any(m <= 0 for m in self.interval_months):
            raise ValueError("inspection intervals must be positive")


@dataclass(frozen=True)
class FamilyPolicy:
    replacement: Union[TimeBased, ConditionBased]
    inspections: Optional[PeriodicInspections] = None


@dataclass(frozen=True)
class Policy:
    families: Mapping[VoltageClass, FamilyPolicy]

    def for_family(self, vc: VoltageClass) -> FamilyPolicy:
        try:
            return self.families[vc]
        except KeyError:
            raise ValueError(f"policy has no entry for family {vc.value}") from None


@dataclass(frozen=True)
class Unconstrained:
    pass


@dataclass(frozen=True)
class Constrained:
    fte_count: int
    hours_per_fte_per_year: float = 1600.0

    def __post_init__(self) -> None:
        if self.fte_count < 0:
            raise ValueError("fte_count must be >= 0")
        if self.hours_per_fte_per_year <= 0:
            raise ValueError("hours_per_fte_per_year must be positive")

    def tick_capacity(self, tick_months: int) -> float:
        return self.fte_count * self.hours_per_fte_per_year * tick_months / 12.0


ResourceModel = Union[Unconstrained, Constrained]


@dataclass(frozen=True)
class ConstantRate:
    value: float = 1.0

    def draw(self, rng: np.random.Generator) -> float:
        return self.value


@dataclass(frozen=True)
class LognormalRate:
    mu: float = 0.0
    sigma: float = 0.2

    def __post_init__(self) -> None:
        if self.sigma < 0:
            raise ValueError("sigma must be >= 0")

    def draw(self, rng: np.random.Generator) -> float:
        return float(math.exp(self.mu + self.sigma * rng.standard_normal()))


RateDistribution = Union[ConstantRate, LognormalRate]


@dataclass(frozen=True)
class Scenario:
    """Everything a simulation run needs besides the fleet itself."""

    name: str
    laws: Mapping[VoltageClass, WeibullLaw]
    policy: Policy
    catalog: ActivityCatalog
    resources: ResourceModel
    horizon_years: int = 100
    tick_months: int = 1
    start_date: Optional[date] = None
    failures_enabled: bool = True
    degradation_rates: RateDistribution = ConstantRate()
    hazard_age: str = "real"
    replications: int = 1
    master_seed: int = 0

    def __post_init__(self) -> None:
        if self.horizon_years <= 0:
            raise ValueError("horizon must be positive")
        if self.tick_months not in VALID_TICKS:
            raise ValueError(f"tick must be one of {VALID_TICKS} months")
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        if self.hazard_age not in ("real", "apparent"):
            raise ValueError("hazard_age must be 'real' or 'apparent'")


# ---------------------------------------------------------------------------
# KPI containers
# ---------------------------------------------------------------------------

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


# ---------------------------------------------------------------------------
# Engine
# ---------------------------------------------------------------------------


def _asset_seed_words(asset_id: str) -> list[int]:
    digest = hashlib.sha256(asset_id.encode("utf-8")).digest()
    return [int.from_bytes(digest[i : i + 8], "little") for i in range(0, 32, 8)]


def _asset_sequences(
    master_seed: int, rep_index: int, asset_id: str
) -> np.random.SeedSequence:
    return np.random.SeedSequence(
        entropy=[master_seed & (2**64 - 1), rep_index, *_asset_seed_words(asset_id)]
    )


def validate_scenario_for_fleet(
    fleet: AssetTable, scenario: Scenario
) -> None:
    """Check that the scenario can actually run against this fleet."""
    if not len(fleet):
        raise ValueError("fleet is empty")
    failed = np.flatnonzero(fleet.failure)
    if len(failed):
        raise ValueError(
            f"asset {fleet.asset_id[failed[0]]!r} already failed; simulation takes an "
            "in-service fleet"
        )
    start = scenario.start_date or date.fromordinal(int(fleet.commission.max()))
    requestable: list[ActivitySpec] = []
    for kv in np.unique(fleet.voltage_kv).tolist():
        vc = VoltageClass.from_kv(kv)
        if vc not in scenario.laws:
            raise ValueError(f"scenario has no reliability law for family {vc.value}")
        fam = scenario.policy.for_family(vc)
        requestable.append(scenario.catalog.replacement(kv, corrective=False))
        requestable.append(scenario.catalog.replacement(kv, corrective=True))
        if fam.inspections is not None:
            for interval in fam.inspections.interval_months:
                if interval % scenario.tick_months != 0:
                    raise ValueError(
                        f"inspection interval {interval} months is not a multiple "
                        f"of the {scenario.tick_months}-month tick"
                    )
                requestable.append(scenario.catalog.inspection(kv, interval))
    late = np.flatnonzero(fleet.commission > start.toordinal())
    if len(late):
        raise ValueError(
            f"asset {fleet.asset_id[late[0]]!r} commissioned after simulation start "
            f"{start.isoformat()}"
        )
    if isinstance(scenario.resources, Constrained) and scenario.resources.fte_count > 0:
        capacity = scenario.resources.tick_capacity(scenario.tick_months)
        for spec in requestable:
            if spec.person_hours > capacity:
                raise ValueError(
                    f"activity {spec.name!r} needs {spec.person_hours} person-hours "
                    f"but a full tick only provides {capacity}; it would never "
                    "schedule"
                )


class _RequestQueue:
    """One priority class of queued requests in a growable buffer.

    The rows of ``buf`` are asset index, spec id and generation; the queue
    is the column range ``[head, tail)``. Entries stay in (request tick,
    asset index) order: each tick's requests are appended sorted by asset
    index; allocation packs the survivors of the prefix it read back against
    the unread rest (`pack_prefix`), and the year-end backlog pass keeps the
    live entries only (`replace`), both in order. Asset index order is
    asset_id order.

    ``floor`` is the smallest person-hours of any activity that can enter
    the class, so a budget below it can execute nothing that is queued.
    """

    def __init__(self, floor: float) -> None:
        self.floor = floor
        self.buf = np.empty((3, 256), dtype=np.int64)
        self.head = self.tail = 0

    def __len__(self) -> int:
        return self.tail - self.head

    def entries(self) -> np.ndarray:
        return self.buf[:, self.head : self.tail]

    def replace(self, entries: np.ndarray) -> None:
        """Make the queue hold exactly these entries."""
        self.buf[:, : entries.shape[1]] = entries
        self.head, self.tail = 0, entries.shape[1]

    def pack_prefix(self, end: int, survivors: np.ndarray) -> None:
        """Replace the entries before column `end` by `survivors`."""
        self.head = end - survivors.shape[1]
        self.buf[:, self.head : end] = survivors

    def push(self, asset: np.ndarray, spec: np.ndarray, generation: np.ndarray) -> None:
        end = self.tail + len(asset)
        if end > self.buf.shape[1]:
            # move to the front of a buffer with room for as many entries
            # again, so copying stays amortized O(1) per entry
            size = len(self)
            buf = np.empty(
                (3, max(self.buf.shape[1], 2 * (size + len(asset)))), dtype=np.int64
            )
            buf[:, :size] = self.entries()
            self.buf, self.head, self.tail = buf, 0, size
            end = size + len(asset)
        self.buf[0, self.tail : end] = asset
        self.buf[1, self.tail : end] = spec
        self.buf[2, self.tail : end] = generation
        self.tail = end


def _greedy_walk(demand: np.ndarray, remaining: float) -> tuple[np.ndarray, float]:
    """Execute requests in queue order within a budget, skipping misfits.

    Returns the positions executed and the capacity left. Each request that
    fits the remaining budget executes and spends its person-hours; one that
    does not is carried. The walk goes a run at a time: a misfit is skipped
    and so is every later request at least as large, since the budget only
    shrinks. `np.subtract.accumulate` subtracts left to right,
    so the budget evolves in exactly the float steps of a scalar loop.
    """
    executed: list[np.ndarray] = []
    pos = np.arange(len(demand))
    while len(pos):
        pos = pos[demand[pos] <= remaining]
        if not len(pos):
            break
        left = np.subtract.accumulate(np.concatenate(([remaining], demand[pos])))
        misfit = np.flatnonzero(left[1:] < 0)
        if not len(misfit):
            executed.append(pos)
            remaining = float(left[-1])
            break
        first = int(misfit[0])
        executed.append(pos[:first])
        remaining = float(left[first])
        pos = pos[first + 1 :]
    if not executed:
        return np.empty(0, dtype=np.int64), remaining
    return np.concatenate(executed), remaining


def _add_left_to_right(start: float, values: np.ndarray) -> float:
    """start + values[0] + values[1] + ..., rounded after every step."""
    return float(np.cumsum(np.concatenate(([start], values)))[-1])


# queue index of each priority class
_CORRECTIVE, _PLANNED, _INSPECTION = 0, 1, 2

# entries an allocation reads first from a queue under a finite budget; each
# further window is twice as wide
_FIRST_WINDOW = 64


class _Engine:
    """One replication over vectorized asset state and array request queues."""

    def __init__(self, fleet: AssetTable, scenario: Scenario, rep_index: int):
        self.scenario = scenario
        self.rep_index = rep_index
        self.tick = scenario.tick_months
        self.tick_years = self.tick / 12.0
        self.tick_hours = HOURS_PER_MONTH * self.tick
        self.ticks_per_year = 12 // self.tick
        self.n_ticks = scenario.horizon_years * self.ticks_per_year

        start = scenario.start_date or date.fromordinal(int(fleet.commission.max()))
        # assets in id order
        order = sorted(range(len(fleet)), key=fleet.asset_id.__getitem__)
        ids = [fleet.asset_id[i] for i in order]
        self.kv = fleet.voltage_kv[order].astype(np.int32)
        # years_between(commission, start) * 12.0, elementwise
        self.age_months = (start.toordinal() - fleet.commission[order]) / DAYS_PER_YEAR * 12.0
        n = len(ids)
        self.in_service = np.ones(n, dtype=bool)
        self.failed_tick = np.zeros(n, dtype=np.int64)
        self.pending = np.zeros(n, dtype=bool)
        self.generation = np.zeros(n, dtype=np.int64)

        self.family = fleet.family[order]
        self.groups: dict[int, np.ndarray] = {
            int(f): np.nonzero(self.family == f)[0]
            for f in np.unique(self.family)
        }
        self.laws = {
            f: scenario.laws[FAMILIES[f]] for f in self.groups
        }

        # Requests refer to activities by id into self.specs.
        spec_ids: dict[ActivitySpec, int] = {}
        catalog = scenario.catalog

        def spec_id(spec: ActivitySpec) -> int:
            return spec_ids.setdefault(spec, len(spec_ids))

        def per_asset(idx: np.ndarray, lookup: Callable[[int], ActivitySpec]) -> np.ndarray:
            by_kv = {int(kv): spec_id(lookup(int(kv))) for kv in np.unique(self.kv[idx])}
            return np.array([by_kv[int(kv)] for kv in self.kv[idx]], dtype=np.int64)

        everyone = np.arange(n)
        self.corrective_spec = per_asset(
            everyone, lambda kv: catalog.replacement(kv, corrective=True)
        )
        self.planned_spec = per_asset(everyone, catalog.replacement)

        self.is_time = np.zeros(n, dtype=bool)
        self.trigger_age = np.zeros(n)
        plans: dict[int, PeriodicInspections] = {}
        for f, idx in self.groups.items():
            fam_policy = scenario.policy.for_family(FAMILIES[f])
            if isinstance(fam_policy.replacement, TimeBased):
                self.is_time[idx] = True
                self.trigger_age[idx] = fam_policy.replacement.age_years
            else:
                self.trigger_age[idx] = fam_policy.replacement.trigger_apparent_age
            if fam_policy.inspections is not None:
                plans[f] = fam_policy.inspections

        # The inspection schedule has one entry per (asset, cadence), numbered
        # asset by asset and, within an asset, in plan order, so sorted entry
        # ids are the order in which due inspections are queued.
        cadences = np.zeros(n, dtype=np.int64)
        for f, plan in plans.items():
            cadences[self.groups[f]] = len(plan.interval_months)
        first_entry = np.cumsum(cadences) - cadences
        n_entries = int(cadences.sum())
        self.entry_asset = np.repeat(everyone, cadences)
        self.entry_spec = np.zeros(n_entries, dtype=np.int64)
        self.entry_start = np.zeros(n_entries)
        self.entry_interval = np.zeros(n_entries, dtype=np.int64)
        for f, plan in plans.items():
            idx = self.groups[f]
            for r, interval in enumerate(plan.interval_months):
                entry = first_entry[idx] + r
                self.entry_spec[entry] = per_asset(
                    idx, lambda kv: catalog.inspection(kv, interval)
                )
                self.entry_start[entry] = plan.start_age_years * 12.0
                self.entry_interval[entry] = interval
        # entries of each asset, -1 padded
        slot = np.arange(cadences.max(initial=0))
        self.entries_of = np.where(
            slot < cadences[:, None], first_entry[:, None] + slot, -1
        )
        # next_check[e] is the next tick at which entry e can fall due; every
        # entry is first checked at tick 0
        self.next_check = np.zeros(n_entries, dtype=np.int64)
        # Bound on the float rounding an age, and age - start, can gather
        # between two checks: one rounding per tick, and one for the
        # subtraction, each within an ulp of the largest age or start age,
        # taken four times over. A check skips only ticks that stay clear of
        # the due window by this much.
        top = max(
            float(self.age_months.max(initial=0.0)) + self.n_ticks * self.tick,
            float(self.entry_start.max(initial=0.0)),
        )
        self.check_slack = max(1e-9, 4.0 * (self.n_ticks + 2) * float(np.spacing(top)))

        self.specs = list(spec_ids)
        self.person_hours = np.array([s.person_hours for s in self.specs])
        self.duration_hours = np.array([s.duration_hours for s in self.specs])

        self.rate_rngs: list[np.random.Generator] = []
        self.rates = np.ones(n)
        uniforms = np.empty((n, self.n_ticks)) if scenario.failures_enabled else None
        for i, asset_id in enumerate(ids):
            failure_seq, rate_seq = _asset_sequences(
                scenario.master_seed, rep_index, asset_id
            ).spawn(2)
            if uniforms is not None:
                uniforms[i] = np.random.default_rng(failure_seq).random(self.n_ticks)
            rng = np.random.default_rng(rate_seq)
            self.rate_rngs.append(rng)
            self.rates[i] = scenario.degradation_rates.draw(rng)
        self.uniforms = uniforms

        if isinstance(scenario.resources, Unconstrained):
            self.capacity: Optional[float] = None
        else:
            self.capacity = scenario.resources.tick_capacity(self.tick)

        def floor(specs: np.ndarray) -> float:
            return float(self.person_hours[specs].min(initial=math.inf))

        self.queues = (
            _RequestQueue(floor(self.corrective_spec)),
            _RequestQueue(floor(self.planned_spec)),
            _RequestQueue(floor(self.entry_spec)),
        )
        # queue entries read by allocation, executed, and dropped as stale
        # (by allocation or at a year end)
        self.examined = self.executed = self.dropped = 0

        self.kpis = KpiSeries.zeros(scenario.horizon_years)

    # -- request plumbing ---------------------------------------------------

    def _push(self, cls: int, asset: np.ndarray, spec: np.ndarray) -> None:
        if len(asset):
            self.queues[cls].push(asset, spec, self.generation[asset])

    def _live(self, cls: int, entries: np.ndarray) -> np.ndarray:
        """Mask of queue entries (rows asset, spec, generation) not stale.

        A request is stale once its asset was replaced after it was raised,
        and an inspection also once its asset is out of service. Staleness
        never reverts (generations only grow), so stale requests can be
        dropped whenever they are read.
        """
        asset = entries[0]
        live = entries[2] == self.generation[asset]
        if cls == _INSPECTION:
            live &= self.in_service[asset]
        return live

    def _walk(self, cls: int, remaining: float) -> tuple[np.ndarray, float]:
        """Execute a class's requests from the head of its queue.

        Reads windows of doubling width until the budget is below the
        class floor or the queue ends (an unbounded budget reads the whole
        queue at once). Each window drops its stale entries and walks the
        rest with `_greedy_walk`; the survivors of the windows read are
        packed back in order, and entries beyond them are not touched.
        Returns the executed entries (rows asset, spec) and the budget left.
        """
        queue = self.queues[cls]
        lo = queue.head
        width = len(queue) if math.isinf(remaining) else _FIRST_WINDOW
        ran: list[np.ndarray] = []
        kept: list[np.ndarray] = []
        while lo < queue.tail and remaining >= queue.floor:
            hi = min(lo + width, queue.tail)
            window = queue.buf[:, lo:hi]
            live = self._live(cls, window)
            pos = np.flatnonzero(live)
            if math.isinf(remaining):
                done = pos
            else:
                taken, remaining = _greedy_walk(
                    self.person_hours[window[1, pos]], remaining
                )
                done = pos[taken]
            live[done] = False
            ran.append(window[:2, done])
            kept.append(window[:, live])
            self.examined += hi - lo
            self.executed += len(done)
            self.dropped += hi - lo - len(pos)
            lo, width = hi, 2 * width
        if not ran:
            return np.empty((2, 0), dtype=np.int64), remaining
        queue.pack_prefix(lo, np.concatenate(kept, axis=1))
        return np.concatenate(ran, axis=1), remaining

    def _allocate_and_complete(self, k: int, year: int) -> None:
        # Classes run in priority order and each one completes before the
        # next is walked, so a replacement executed here makes the queued
        # requests of its asset stale before a later class is read. Within
        # one class no completion can make another entry stale: an asset has
        # at most one live replacement request per class, and inspections
        # change no state.
        remaining = math.inf if self.capacity is None else self.capacity
        for cls, queue in enumerate(self.queues):
            if not len(queue):
                continue
            (assets, specs), remaining = self._walk(cls, remaining)
            if not len(assets):
                continue
            if cls == _INSPECTION:
                self._complete_inspections(specs, year)
            else:
                self._complete_replacements(assets, specs, k, year)

    def _backlog_person_hours(self) -> float:
        """Person-hours of the live queued requests, at a year end.

        This reads every queue whole, so it also drops their stale entries:
        allocation drops only those it reads, and a long carried queue would
        otherwise keep a year's stale requests beyond its walked prefix.
        """
        hours = []
        for cls, queue in enumerate(self.queues):
            entries = queue.entries()
            live = entries[:, self._live(cls, entries)]
            self.dropped += entries.shape[1] - live.shape[1]
            queue.replace(live)
            hours.append(self.person_hours[live[1]])
        # summed left to right in class-then-FIFO order, as a scalar loop
        # would; np.sum adds pairwise and could differ in the last bits
        return _add_left_to_right(0.0, np.concatenate(hours))

    # -- tick steps ----------------------------------------------------------

    def _draw_failures(self, k: int, year: int) -> np.ndarray:
        hit_groups: list[np.ndarray] = []
        for f, idx in self.groups.items():
            law = self.laws[f]
            ages = self.age_months[idx] / 12.0
            ends = ages + self.tick_years
            if self.scenario.hazard_age == "apparent":
                # both ends of the tick in apparent age: r * a and r * (a + t)
                rates = self.rates[idx]
                ages = ages * rates
                ends = ends * rates
            p = law.interval_failure_probability(ages, ends)
            hits = self.in_service[idx] & (self.uniforms[idx, k] < p)
            hit_groups.append(idx[hits])
        failed = np.sort(np.concatenate(hit_groups))
        self.in_service[failed] = False
        self.failed_tick[failed] = k
        self.kpis.failures[year] += len(failed)
        return failed

    def _replacement_triggers(self) -> np.ndarray:
        age_years = self.age_months / 12.0
        effective = np.where(self.is_time, age_years, age_years * self.rates)
        due = np.flatnonzero(
            self.in_service & ~self.pending & (effective >= self.trigger_age)
        )
        self.pending[due] = True
        return due

    def _inspection_triggers(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Inspections due at tick k, from the entries checked at tick k.

        A cadence is due when its asset is in service and
        ``age >= start and (age - start) % interval < tick`` on the age the
        engine holds. Each checked entry, whether or not its asset could be
        inspected, is booked for the next tick at which that rule can hold:
        the tick where the phase ``(age - start) % interval`` wraps past the
        interval, or where the age reaches the start age.
        Ages advance by one tick per tick; the ticks skipped allow for
        `check_slack` of float drift, and a phase within the slack of zero
        is checked again on the next tick.
        """
        entry = np.flatnonzero(self.next_check == k)
        asset = self.entry_asset[entry]
        ages = self.age_months[asset]
        start = self.entry_start[entry]
        interval = self.entry_interval[entry]
        phase = (ages - start) % interval
        due = self.in_service[asset] & (ages >= start) & (phase < self.tick)
        slack = self.check_slack
        ahead = np.where(
            ages < start,
            start - ages - 2 * slack,
            np.where(phase < slack, 0.0, interval - phase - 2 * slack),
        )
        self.next_check[entry] = k + np.maximum(np.ceil(ahead / self.tick), 1)
        return asset[due], self.entry_spec[entry[due]]

    def _book_cost(self, ledger: list[Decimal], specs: np.ndarray, year: int) -> None:
        # one exact Decimal product per activity
        for s, count in enumerate(np.bincount(specs).tolist()):
            if count:
                ledger[year] += self.specs[s].total_cost * count

    def _complete_replacements(
        self, assets: np.ndarray, specs: np.ndarray, k: int, year: int
    ) -> None:
        kpis = self.kpis
        self._book_cost(kpis.capex, specs, year)
        kpis.replacements[year] += len(assets)
        gap_hours = np.where(
            self.in_service[assets], 0.0, (k - self.failed_tick[assets]) * self.tick_hours
        )
        kpis.unavailability_hours[year] = _add_left_to_right(
            kpis.unavailability_hours[year], gap_hours + self.duration_hours[specs]
        )
        self.age_months[assets] = 0.0
        self.in_service[assets] = True
        self.pending[assets] = False
        self.generation[assets] += 1
        draw = self.scenario.degradation_rates.draw
        for i in assets.tolist():
            self.rates[i] = draw(self.rate_rngs[i])
        # the cadences restart from age 0, checked from the next tick
        entry = self.entries_of[assets]
        self.next_check[entry[entry >= 0]] = k + 1

    def _complete_inspections(self, specs: np.ndarray, year: int) -> None:
        kpis = self.kpis
        self._book_cost(kpis.opex, specs, year)
        hours = self.duration_hours[specs]
        kpis.inspection_hours[year] = _add_left_to_right(kpis.inspection_hours[year], hours)
        kpis.unavailability_hours[year] = _add_left_to_right(
            kpis.unavailability_hours[year], hours
        )

    def run(self) -> KpiSeries:
        for k in range(self.n_ticks):
            if k > 0:
                self.age_months += self.tick
            year = (k * self.tick) // 12
            if self.scenario.failures_enabled:
                failed = self._draw_failures(k, year)
                self._push(_CORRECTIVE, failed, self.corrective_spec[failed])
            due = self._replacement_triggers()
            self._push(_PLANNED, due, self.planned_spec[due])
            self._push(_INSPECTION, *self._inspection_triggers(k))
            self._allocate_and_complete(k, year)
            if (k + 1) % self.ticks_per_year == 0:
                self.kpis.backlog_hours[year] = self._backlog_person_hours()
        return self.kpis


def _replication_worker(args: tuple) -> KpiSeries:
    fleet, scenario, rep_index = args
    return _Engine(fleet, scenario, rep_index).run()


def run_scenario(
    fleet: AssetTable, scenario: Scenario, jobs: int = 1
) -> SimulationReport:
    """Run all replications of a scenario and aggregate them.

    Replications are independent and may run in parallel; the report is a
    pure function of (fleet, scenario) regardless of jobs.
    """
    validate_scenario_for_fleet(fleet, scenario)
    indices = range(scenario.replications)
    if jobs > 1 and scenario.replications > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            series = list(
                pool.map(
                    _replication_worker,
                    [(fleet, scenario, r) for r in indices],
                )
            )
    else:
        series = [_Engine(fleet, scenario, r).run() for r in indices]
    return SimulationReport(
        scenario_name=scenario.name,
        master_seed=scenario.master_seed,
        horizon_years=scenario.horizon_years,
        tick_months=scenario.tick_months,
        replications=series,
        aggregates=aggregate_replications(series),
    )


def aggregate_replications(series: Sequence[KpiSeries]) -> dict[str, AggregateSeries]:
    """Per-year mean/p10/p90 across replications, in replication-index order."""
    if not series:
        raise ValueError("no replications to aggregate")
    horizon = series[0].horizon_years
    for s in series:
        if s.horizon_years != horizon:
            raise ValueError("replications have mismatched horizons")
    out: dict[str, AggregateSeries] = {}
    for name in METRICS:
        matrix = np.array(
            [[float(v) for v in s.metric(name)] for s in series], dtype=float
        )
        out[name] = AggregateSeries(
            mean=(matrix.sum(axis=0) / len(series)).tolist(),
            p10=np.percentile(matrix, 10, axis=0).tolist(),
            p90=np.percentile(matrix, 90, axis=0).tolist(),
        )
    return out


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
