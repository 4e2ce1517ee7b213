"""Monte-Carlo fleet simulation under replacement and inspection policies.

The clock advances in monthly ticks. Each tick: failures are sampled from the
family reliability laws, policy triggers raise activity requests, and a
resource pool executes requests in priority order (corrective replacements,
then planned replacements, then inspections; FIFO by request tick then
asset_id within a class). Activities are atomic within a tick; requests that
do not fit the tick's person-hour capacity carry over with their original
timestamps.

Failure sampling draws from the cumulative-hazard difference over the tick,
``1 - exp(-(H(a + t) - H(a)))`` for real age ``a`` and tick length ``t``.
With ``hazard_age="apparent"`` both ends are apparent ages, so an asset with
degradation rate ``r`` uses ``1 - exp(-(H(r(a + t)) - H(ra)))``.

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
from dataclasses import dataclass, field
from datetime import date
from decimal import Decimal
from typing import IO, Callable, Iterable, Mapping, Optional, Sequence, Union

import numpy as np

from .fleet import AssetRecord, VoltageClass, years_between
from .health import AhiConfig, DegradationState
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
    "AssetStatus",
    "AssetState",
    "ActivityRequest",
    "KpiSeries",
    "AggregateSeries",
    "SimulationReport",
    "ComparisonReport",
    "sample_failure",
    "evaluate_triggers",
    "allocate_resources",
    "apply_completion",
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


# Lower value executes first.
_PRIORITY = {
    ActivityKind.CORRECTIVE_REPLACEMENT: 0,
    ActivityKind.PLANNED_REPLACEMENT: 1,
    ActivityKind.INSPECTION: 2,
}


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
    # health-scoring thresholds carried alongside the policy so scoring
    # pipelines can share one configuration file with the simulation
    ahi: AhiConfig = AhiConfig()

    def __post_init__(self) -> None:
        if self.horizon_years <= 0:
            raise ValueError("horizon must be positive")
        if self.tick_months not in VALID_TICKS:
            raise ValueError(f"tick must be one of {VALID_TICKS} months")
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        if self.hazard_age not in ("real", "apparent"):
            raise ValueError("hazard_age must be 'real' or 'apparent'")


class AssetStatus(enum.Enum):
    IN_SERVICE = "in_service"
    FAILED = "failed"
    UNDER_MAINTENANCE = "under_maintenance"


@dataclass
class AssetState:
    """Mutable per-asset simulation state."""

    asset_id: str
    voltage_kv: int
    age_months: float
    degradation: DegradationState = field(default_factory=DegradationState)
    status: AssetStatus = AssetStatus.IN_SERVICE
    failed_tick: Optional[int] = None
    pending_replacement: bool = False
    generation: int = 0

    @property
    def age_years(self) -> float:
        return self.age_months / 12.0

    @property
    def apparent_age_years(self) -> float:
        return self.degradation.rate * self.age_years


@dataclass(frozen=True)
class ActivityRequest:
    """A queued activity; ordering is (priority, request_tick, asset_id)."""

    kind: ActivityKind
    request_tick: int
    asset_id: str
    asset_index: int
    spec: ActivitySpec
    generation: int = 0

    @property
    def priority(self) -> int:
        return _PRIORITY[self.kind]

    @property
    def person_hours(self) -> float:
        return self.spec.person_hours

    @property
    def sort_key(self) -> tuple[int, int, str]:
        return (self.priority, self.request_tick, self.asset_id)


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
# Scalar operations (the simulation engine applies the same rules in bulk)
# ---------------------------------------------------------------------------


def sample_failure(
    asset: AssetState,
    law: WeibullLaw,
    tick_years: float,
    rng: np.random.Generator,
    enabled: bool = True,
) -> bool:
    """One Bernoulli failure draw over the next tick, from the asset's real age."""
    if not enabled:
        return False
    p = law.conditional_failure_probability(asset.age_years, tick_years)
    return bool(rng.random() < p)


def inspection_due(
    age_months: float, plan: PeriodicInspections, interval_months: int, tick_months: int
) -> bool:
    """Whether the given cadence falls due in the tick starting at this age.

    The cadence is anchored to the age at which the asset becomes eligible
    (start_age), so it restarts automatically after a replacement resets the
    age.
    """
    start = plan.start_age_years * 12.0
    if age_months < start:
        return False
    return (age_months - start) % interval_months < tick_months


def evaluate_triggers(
    asset: AssetState, policy: Policy, tick_months: int = 1
) -> list[tuple[ActivityKind, Optional[int]]]:
    """Activities the policy requests for this asset at the current tick.

    Returns (kind, inspection_interval) pairs. Failed assets request a
    corrective replacement and nothing else. Deduplication of repeated
    replacement requests across ticks is the scheduler's business, not ours.
    """
    if asset.status is AssetStatus.FAILED:
        return [(ActivityKind.CORRECTIVE_REPLACEMENT, None)]
    if asset.status is not AssetStatus.IN_SERVICE:
        return []
    fam = policy.for_family(VoltageClass.from_kv(asset.voltage_kv))
    requests: list[tuple[ActivityKind, Optional[int]]] = []
    trigger = fam.replacement
    if isinstance(trigger, TimeBased):
        if asset.age_years >= trigger.age_years:
            requests.append((ActivityKind.PLANNED_REPLACEMENT, None))
    else:
        if asset.apparent_age_years >= trigger.trigger_apparent_age:
            requests.append((ActivityKind.PLANNED_REPLACEMENT, None))
    if fam.inspections is not None:
        for interval in fam.inspections.interval_months:
            if inspection_due(asset.age_months, fam.inspections, interval, tick_months):
                requests.append((ActivityKind.INSPECTION, interval))
    return requests


def allocate_resources(
    requests: Iterable[ActivityRequest], capacity_person_hours: Optional[float]
) -> tuple[list[ActivityRequest], list[ActivityRequest]]:
    """Execute requests in priority order within a person-hour budget.

    None capacity means unconstrained. Requests are attempted in
    (priority, request_tick, asset_id) order; each executed request consumes
    duration * required_fte person-hours; a request that does not fit is
    carried, and later requests may still use the leftover capacity.
    """
    queue = sorted(requests, key=lambda r: r.sort_key)
    if capacity_person_hours is None:
        return queue, []
    executed: list[ActivityRequest] = []
    carried: list[ActivityRequest] = []
    remaining = capacity_person_hours
    for req in queue:
        demand = req.person_hours
        if demand <= remaining:
            executed.append(req)
            remaining -= demand
        else:
            carried.append(req)
    return executed, carried


def apply_completion(
    asset: AssetState,
    request: ActivityRequest,
    kpis: KpiSeries,
    year: int,
    exec_tick: int,
    tick_hours: float,
    new_rate: float = 1.0,
) -> None:
    """Book an executed activity into the ledgers and update the asset.

    Replacements reset the age to zero, draw a fresh degradation rate, and
    count material plus workforce cost as CAPEX. Inspections count as OPEX
    and inspection hours. Every activity's duration is unavailability; a
    failed asset additionally books the whole span from the failure instant
    to the executing tick.
    """
    spec = request.spec
    if request.kind is ActivityKind.INSPECTION:
        kpis.opex[year] += spec.total_cost
        kpis.inspection_hours[year] += spec.duration_hours
        kpis.unavailability_hours[year] += spec.duration_hours
        return
    gap_hours = 0.0
    if asset.status is AssetStatus.FAILED and asset.failed_tick is not None:
        gap_hours = (exec_tick - asset.failed_tick) * tick_hours
    kpis.capex[year] += spec.total_cost
    kpis.replacements[year] += 1
    kpis.unavailability_hours[year] += gap_hours + spec.duration_hours
    asset.age_months = 0.0
    asset.degradation = DegradationState(rate=new_rate)
    asset.status = AssetStatus.IN_SERVICE
    asset.failed_tick = None
    asset.pending_replacement = False
    asset.generation += 1


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
    fleet: Sequence[AssetRecord], scenario: Scenario
) -> None:
    """Check that the scenario can actually run against this fleet."""
    if not fleet:
        raise ValueError("fleet is empty")
    seen: set[str] = set()
    for rec in fleet:
        if rec.asset_id in seen:
            raise ValueError(f"duplicate asset_id {rec.asset_id!r} in fleet")
        seen.add(rec.asset_id)
        if rec.failure_date is not None:
            raise ValueError(
                f"asset {rec.asset_id!r} already failed; simulation takes an "
                "in-service fleet"
            )
    start = scenario.start_date or max(r.commission_date for r in fleet)
    requestable: list[ActivitySpec] = []
    for kv in sorted({r.voltage_kv for r in fleet}):
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
    for rec in fleet:
        if rec.commission_date > start:
            raise ValueError(
                f"asset {rec.asset_id!r} commissioned after simulation start "
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
    """One priority class of queued requests as parallel arrays.

    Entries stay in (request tick, asset index) order: each tick's requests
    are appended sorted by asset index, and removals keep the survivors'
    order. Asset index order is asset_id order.
    """

    def __init__(self) -> None:
        self.asset = np.empty(0, dtype=np.int64)
        self.spec = np.empty(0, dtype=np.int64)
        self.generation = np.empty(0, dtype=np.int64)

    def __len__(self) -> int:
        return len(self.asset)

    def push(self, asset: np.ndarray, spec: np.ndarray, generation: np.ndarray) -> None:
        self.asset = np.concatenate((self.asset, asset))
        self.spec = np.concatenate((self.spec, spec))
        self.generation = np.concatenate((self.generation, generation))

    def keep(self, mask: np.ndarray) -> None:
        self.asset = self.asset[mask]
        self.spec = self.spec[mask]
        self.generation = self.generation[mask]


def _greedy_walk(demand: np.ndarray, remaining: float) -> tuple[np.ndarray, float]:
    """Execute requests in queue order within a budget, skipping misfits.

    Returns the positions executed and the capacity left. This is the walk
    `allocate_resources` describes, done a run at a time: a misfit is
    skipped and so is every later request at least as large, since the
    budget only shrinks. `np.subtract.accumulate` subtracts left to right,
    so the budget evolves in exactly the float steps of a scalar loop. The
    queue is taken in windows of doubling width, because a binding budget
    is spent on a short prefix of a long carried queue.
    """
    executed: list[np.ndarray] = []
    smallest = demand.min() if len(demand) else math.inf
    lo, width = 0, 64
    while lo < len(demand) and remaining >= smallest:
        pos = np.arange(lo, min(lo + width, len(demand)))
        lo, width = lo + width, 2 * width
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


class _Engine:
    """One replication over vectorized asset state and array request queues."""

    def __init__(self, fleet: Sequence[AssetRecord], scenario: Scenario, rep_index: int):
        self.scenario = scenario
        self.rep_index = rep_index
        self.tick = scenario.tick_months
        self.tick_years = self.tick / 12.0
        self.tick_hours = HOURS_PER_MONTH * self.tick
        self.ticks_per_year = 12 // self.tick
        self.n_ticks = scenario.horizon_years * self.ticks_per_year

        start = scenario.start_date or max(r.commission_date for r in fleet)
        order = sorted(range(len(fleet)), key=lambda i: fleet[i].asset_id)
        ids = [fleet[i].asset_id for i in order]
        self.kv = np.array([fleet[i].voltage_kv for i in order], dtype=np.int32)
        self.age_months = np.array(
            [years_between(fleet[i].commission_date, start) * 12.0 for i in order]
        )
        n = len(ids)
        self.in_service = np.ones(n, dtype=bool)
        self.failed_tick = np.zeros(n, dtype=np.int64)
        self.pending = np.zeros(n, dtype=bool)
        self.generation = np.zeros(n, dtype=np.int64)

        self.family = np.array(
            [list(VoltageClass).index(VoltageClass.from_kv(k)) for k in self.kv],
            dtype=np.int8,
        )
        self.groups: dict[int, np.ndarray] = {
            int(f): np.nonzero(self.family == f)[0]
            for f in np.unique(self.family)
        }
        self.laws = {
            f: scenario.laws[list(VoltageClass)[f]] for f in self.groups
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
        # (assets, start age in months, interval, spec id of each asset)
        self.insp_rules: list[tuple[np.ndarray, float, int, np.ndarray]] = []
        for f, idx in self.groups.items():
            fam_policy = scenario.policy.for_family(list(VoltageClass)[f])
            if isinstance(fam_policy.replacement, TimeBased):
                self.is_time[idx] = True
                self.trigger_age[idx] = fam_policy.replacement.age_years
            else:
                self.trigger_age[idx] = fam_policy.replacement.trigger_apparent_age
            if fam_policy.inspections is not None:
                for interval in fam_policy.inspections.interval_months:
                    self.insp_rules.append(
                        (
                            idx,
                            fam_policy.inspections.start_age_years * 12.0,
                            interval,
                            per_asset(
                                idx, lambda kv: catalog.inspection(kv, interval)
                            ),
                        )
                    )

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
        self.queues = (_RequestQueue(), _RequestQueue(), _RequestQueue())

        self.kpis = KpiSeries.zeros(scenario.horizon_years)

    # -- request plumbing ---------------------------------------------------

    def _push(self, cls: int, asset: np.ndarray, spec: np.ndarray) -> None:
        if len(asset):
            self.queues[cls].push(asset, spec, self.generation[asset])

    def _live(self, cls: int) -> np.ndarray:
        """Mask of the class's requests that are not stale.

        A request is stale once its asset was replaced after it was raised,
        and an inspection also once its asset is out of service. Staleness
        never reverts (generations only grow), so stale requests can be
        dropped as soon as they are seen.
        """
        queue = self.queues[cls]
        live = queue.generation == self.generation[queue.asset]
        if cls == _INSPECTION:
            live &= self.in_service[queue.asset]
        return live

    def _allocate_and_complete(self, k: int, year: int) -> None:
        # Classes run in priority order and each one completes before the
        # next is masked, so a replacement executed here makes the queued
        # requests of its asset stale before a later class is walked. Within
        # one class no completion can make another entry stale: an asset has
        # at most one live replacement request per class, and inspections
        # change no state.
        remaining = math.inf if self.capacity is None else self.capacity
        for cls, queue in enumerate(self.queues):
            if not len(queue):
                continue
            stay = self._live(cls)
            # unconstrained, every live request executes
            executed = np.flatnonzero(stay)
            if self.capacity is not None:
                taken, remaining = _greedy_walk(
                    self.person_hours[queue.spec[executed]], remaining
                )
                executed = executed[taken]
            stay[executed] = False
            assets = queue.asset[executed]
            specs = queue.spec[executed]
            queue.keep(stay)
            if cls == _INSPECTION:
                self._complete_inspections(specs, year)
            else:
                for i, s in zip(assets.tolist(), specs.tolist()):
                    self._complete_replacement(i, self.specs[s], k, year)

    def _backlog_person_hours(self) -> float:
        # summed left to right in class-then-FIFO order, as a scalar loop
        # would; np.sum adds pairwise and could differ in the last bits
        hours = [
            self.person_hours[queue.spec[self._live(cls)]]
            for cls, queue in enumerate(self.queues)
        ]
        return _add_left_to_right(0.0, np.concatenate(hours))

    # -- tick steps ----------------------------------------------------------

    def _sample_failures(self, k: int, year: int) -> np.ndarray:
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

    def _inspection_triggers(self) -> tuple[np.ndarray, np.ndarray]:
        assets: list[np.ndarray] = []
        specs: list[np.ndarray] = []
        for idx, start_months, interval, spec in self.insp_rules:
            ages = self.age_months[idx]
            due = (
                self.in_service[idx]
                & (ages >= start_months)
                & ((ages - start_months) % interval < self.tick)
            )
            assets.append(idx[due])
            specs.append(spec[due])
        if not assets:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        asset = np.concatenate(assets)
        # stable, so an asset's cadences stay in rule order
        order = np.argsort(asset, kind="stable")
        return asset[order], np.concatenate(specs)[order]

    def _complete_replacement(self, i: int, spec: ActivitySpec, k: int, year: int) -> None:
        gap_hours = 0.0
        if not self.in_service[i]:
            gap_hours = (k - int(self.failed_tick[i])) * self.tick_hours
        self.kpis.capex[year] += spec.total_cost
        self.kpis.replacements[year] += 1
        self.kpis.unavailability_hours[year] += gap_hours + spec.duration_hours
        self.age_months[i] = 0.0
        self.in_service[i] = True
        self.pending[i] = False
        self.generation[i] += 1
        self.rates[i] = self.scenario.degradation_rates.draw(self.rate_rngs[i])

    def _complete_inspections(self, specs: np.ndarray, year: int) -> None:
        kpis = self.kpis
        for s, count in enumerate(np.bincount(specs).tolist()):
            if count:
                kpis.opex[year] += self.specs[s].total_cost * count
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
                failed = self._sample_failures(k, year)
                self._push(_CORRECTIVE, failed, self.corrective_spec[failed])
            due = self._replacement_triggers()
            self._push(_PLANNED, due, self.planned_spec[due])
            self._push(_INSPECTION, *self._inspection_triggers())
            self._allocate_and_complete(k, year)
            if (k + 1) % self.ticks_per_year == 0:
                self.kpis.backlog_hours[year] = self._backlog_person_hours()
        return self.kpis


def _simulate_replication(
    fleet: Sequence[AssetRecord], scenario: Scenario, rep_index: int
) -> KpiSeries:
    return _Engine(fleet, scenario, rep_index).run()


def _replication_worker(args: tuple) -> KpiSeries:
    fleet, scenario, rep_index = args
    return _simulate_replication(fleet, scenario, rep_index)


def run_scenario(
    fleet: Sequence[AssetRecord], scenario: Scenario, jobs: int = 1
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
                    [(list(fleet), scenario, r) for r in indices],
                )
            )
    else:
        series = [_simulate_replication(fleet, scenario, r) for r in indices]
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
