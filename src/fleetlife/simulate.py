"""Monte-Carlo fleet simulation under replacement and inspection policies.

The model's clock advances in ticks of whole months. In a tick, failed
assets and policy triggers raise activity requests, and a resource pool
executes them in priority order (corrective replacements, then planned
replacements, then inspections; FIFO by request tick then asset_id within
a class). Activities are atomic within a tick; a request that does not fit
the capacity left in the tick carries over with its original timestamp,
and later requests may still use what is left. The engine does not step
through that model tick by tick: each asset generation's failure tick is
drawn with it, an open pool runs generation by generation, and a
constrained pool runs two passes, its replacements and then its
inspections on the budget they leave.

Failures are drawn as event times, once per asset generation. A generation
at risk from real age ``a0`` fails at age
``T = eta * ((a0 / eta)**beta + E)**(1 / beta)`` with ``E = -log(1 - u)``
for a uniform ``u``, which inverts ``1 - exp(-(H(T) - H(a0)))``, and so in
the tick whose ``[a, a + t)`` holds ``T``. That is the same distribution as
a per-tick trial with probability ``1 - exp(-(H(a + t) - H(a)))``. With
``hazard_age="apparent"`` the law's scale is ``eta / r`` for the
generation's degradation rate ``r``, so the tick's probability is
``1 - exp(-(H(r(a + t)) - H(ra)))``. The initial fleet is at risk from its
start age at tick 0; a replacement resets the age to 0 within its tick,
and the new generation is first at risk a tick later, from age ``t``.

Clock: ages, cadence start ages and intervals are whole units of a grid
of 1/16 day (`generations.UNITS_PER_MONTH` = 487 a month), so the start
ages of the fleet, counted in days, are exact, and so is every age a tick
or a replacement makes. A cadence start age is rounded up to the grid.

Triggers: a failed asset requests its corrective replacement and nothing
else. An in-service asset requests a planned replacement once its real age
(time-based) or its apparent age ``r * a`` (condition-based) reaches the
trigger, a float rule on the exact age in years, and an inspection at each
cadence for which ``age >= start and (age - start) % interval < tick``, in
integers. The cadence is anchored to the start age, so it restarts after a
replacement resets the age.

Completion: a replacement books material plus workforce cost as CAPEX,
resets the age to 0 and draws a fresh degradation rate; an inspection books
its cost as OPEX and its duration as inspection hours. Every activity's
duration is unavailability, and a failed asset also books the whole span
from its failure tick to the tick its corrective replacement executes. The
engine counts what executes per (year, activity); each year's money and
hours are exact sums of those counts, rounded once.

The engine (`_Engine`) is set up once per run: it checks the scenario
against the fleet and builds what every replication shares. `run(rep)`
then runs replication `rep` on arrays:

* The engine holds no ages. Each asset holds the ticks at which its
  current generation fails and reaches its replacement trigger, both drawn
  in closed form with the generation; an in-service asset whose trigger
  tick has come requests its planned replacement.
* Each (asset, cadence) holds two due ticks: the first of its asset's
  current generation, booked in closed form (`generations.first_due`) at
  set-up and on replacement, and that of its oldest inspection not
  executed, which moves on by the cadence's period each time one executes.
* An open pool (`Unconstrained`) has no clock (`generations.run_open_pool`).
  No queue couples its assets, so each asset's history is a chain of
  generations, simulated one round at a time: every generation ends at its
  failure tick or its trigger tick, whichever comes first (a failure wins a
  tie). Its inspections are counted in closed form, a year at a time, up
  to that end; those raised at the tick of a planned replacement are
  dropped. So the report is the one a constrained pool gives when it
  never binds, and the backlog is always zero.
* A constrained pool runs in two passes. Replacements never wait on
  inspections: they are walked first in every tick, and no inspection
  moves a failure tick or a trigger tick, so the replacements of the whole
  run are scheduled first, in one pass over calendars of request ticks
  (`generations.schedule_replacements`). The inspection pass then visits
  only the ticks with an inspection due or a failure or replacement. It
  ends the cadences of the assets that fail, ends and restarts those of
  the assets replaced, and walks the tick's inspections on the budget the
  replacements left. Each cadence entry's copies pending at tick k are its
  due ticks, one period apart, from its oldest not executed up to k
  (`generations.due_before`), walked in (request tick, id) order
  (`_Engine._walk`). The split is exact: a tick loop walking the three
  classes in turn executes the same replacements, and so leaves the same
  budget, in every tick, as they read nothing an inspection changes. An
  event touches a few assets, so both passes read and write their ticks
  an int at a time, and count what an event ends, and the inspections
  executed, once a year, at the year end.
* The failure and trigger delays of generations ``0 .. G-1`` of every
  asset are drawn at the start of each replication in one call, and ``G``
  doubles when an asset reaches it.

Determinism contract: every draw is a pure function of its coordinates.
Asset generation ``g`` of replication ``rep`` takes one Philox4x64-10 block,
keyed by the first 16 bytes of the sha256 of the id's UTF-8 bytes, at counter
``(g, rep, master_seed mod 2**64, 0)``. Word 0 gives its failure uniform,
words 1 and 2 the normal its degradation rate is drawn from. Results are
therefore independent of iteration and scheduling order, including
parallel execution of replications, and two scenarios that differ only in
policy or resources draw the same failure age for the same generation.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass
from datetime import date
from decimal import Decimal
from typing import Callable, Iterable, Mapping, Optional, Sequence, Union

import numpy as np

from . import sha256
from .fleet import FAMILIES, AssetTable, VoltageClass
from .generations import (
    UNITS_PER_DAY,
    UNITS_PER_MONTH,
    UNITS_PER_YEAR,
    _greedy_walk,
    due_before,
    first_due,
    run_open_pool,
    schedule_replacements,
    trigger_delay,
)
from .reports import (
    AggregateSeries,
    ComparisonReport,
    KpiSeries,
    SimulationReport,
    aggregate_replications,
    compare_scenarios,
)
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

VALID_TICKS = (1, 2, 3, 4, 6, 12)


class CatalogError(ValueError):
    """An activity the policy can request is missing from the catalog."""


class ActivityKind(enum.Enum):
    INSPECTION = "inspection"
    PLANNED_REPLACEMENT = "planned_replacement"
    CORRECTIVE_REPLACEMENT = "corrective_replacement"


@dataclass(frozen=True)
class ActivitySpec:
    """One maintenance activity with its workload and cost breakdown; the
    catalog slot it sits in is its kind."""

    name: str
    duration_hours: float
    required_fte: int
    material_cost: Decimal
    workforce_cost: Decimal

    def __post_init__(self) -> None:
        if self.duration_hours < 0:
            raise ValueError(f"duration_hours: negative duration of activity {self.name!r}")
        if self.required_fte < 1:
            raise ValueError(f"required_fte: must be >= 1 for activity {self.name!r}")
        if self.material_cost < 0:
            raise ValueError(f"material_cost: negative cost of activity {self.name!r}")
        if self.workforce_cost < 0:
            raise ValueError(f"workforce_cost: negative cost of activity {self.name!r}")

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
            raise ValueError("age_years: trigger age must be positive")


@dataclass(frozen=True)
class ConditionBased:
    """Replace when the apparent age crosses a threshold."""

    trigger_apparent_age: float

    def __post_init__(self) -> None:
        if self.trigger_apparent_age <= 0:
            raise ValueError("trigger_apparent_age: trigger age must be positive")


@dataclass(frozen=True)
class PeriodicInspections:
    start_age_years: float
    interval_months: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.interval_months:
            raise ValueError("interval_months: expected a non-empty sequence")
        if any(m <= 0 for m in self.interval_months):
            raise ValueError("interval_months: every interval must be positive")
        if self.start_age_years < 0:
            raise ValueError("start_age_years: must be >= 0")
        most = (2**63 - 1) // UNITS_PER_YEAR  # the engine's int64 grid units
        if self.start_age_years > most:
            raise ValueError(f"start_age_years: at most {most} years")


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
    hours_per_fte_per_year: float

    def __post_init__(self) -> None:
        if self.fte_count < 0:
            raise ValueError("fte_count: must be >= 0")
        if self.hours_per_fte_per_year <= 0:
            raise ValueError("hours_per_fte_per_year: must be positive")

    def tick_capacity(self, tick_months: int) -> float:
        return self.fte_count * self.hours_per_fte_per_year * tick_months / 12.0


ResourceModel = Union[Unconstrained, Constrained]


@dataclass(frozen=True)
class ConstantRate:
    value: float = 1.0

    def __post_init__(self) -> None:
        if not (self.value > 0 and math.isfinite(self.value)):
            raise ValueError(f"value: rate must be positive and finite, got {self.value}")

    def from_normals(self, z: np.ndarray) -> np.ndarray:
        """The rate drawn with each standard normal."""
        return np.full(z.shape, self.value)


# the largest |z| of a normal from `_stream_draws`, whose Box-Muller radius
# takes a uniform no smaller than 2**-53, and the log of the largest float
_LARGEST_NORMAL = math.sqrt(-2.0 * math.log(2.0**-53))
_LOG_MAX = math.log(sys.float_info.max)


@dataclass(frozen=True)
class LognormalRate:
    mu: float = 0.0
    sigma: float = 0.2

    def __post_init__(self) -> None:
        if self.sigma < 0:
            raise ValueError("sigma: must be >= 0")
        # every rate drawn, exp(mu + sigma z) for a normal z from
        # `_stream_draws`, must be a finite positive float
        for field, spread in (("mu", 0.0), ("sigma", _LARGEST_NORMAL * self.sigma)):
            if not (self.mu + spread <= _LOG_MAX and math.exp(self.mu - spread) > 0):
                raise ValueError(
                    f"{field}: exp(mu +/- {_LARGEST_NORMAL:.4f} sigma) must be a finite "
                    f"positive float, got mu = {self.mu}, sigma = {self.sigma}"
                )

    def from_normals(self, z: np.ndarray) -> np.ndarray:
        """The rate drawn with each standard normal."""
        return np.exp(self.mu + self.sigma * z)


RateDistribution = Union[ConstantRate, LognormalRate]


@dataclass(frozen=True, kw_only=True)
class Scenario:
    """Everything a simulation run needs besides the fleet itself, its
    fields in the order a scenario file writes them."""

    name: str
    horizon_years: int = 100
    tick_months: int = 1
    start_date: Optional[date] = None
    master_seed: int = 0
    replications: int = 1
    failures_enabled: bool = True
    hazard_age: str = "real"
    degradation_rates: RateDistribution = ConstantRate()
    laws: Mapping[VoltageClass, WeibullLaw]
    policy: Policy
    catalog: ActivityCatalog
    resources: ResourceModel

    def __post_init__(self) -> None:
        if self.tick_months not in VALID_TICKS:
            raise ValueError(f"tick_months: must be one of {VALID_TICKS}")
        if self.horizon_years <= 0:
            raise ValueError("horizon_years: must be positive")
        # the open pool holds ticks in int32 columns (`generations._cadence_pairs`)
        most = (2**31 - 1) // (12 // self.tick_months)
        if self.horizon_years > most:
            raise ValueError(f"horizon_years: at most {most} years of {self.tick_months}-month ticks")
        if self.replications < 1:
            raise ValueError("replications: must be >= 1")
        if self.hazard_age not in ("real", "apparent"):
            raise ValueError("hazard_age: must be 'real' or 'apparent'")


# ---------------------------------------------------------------------------
# Engine
# ---------------------------------------------------------------------------


# Philox4x64-10 (Salmon et al., "Parallel random numbers: as easy as 1, 2,
# 3", SC'11): the round multipliers and the key's increment per round
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (np.uint64(0x9E3779B97F4A7C15), np.uint64(0xBB67AE8584CAA73B))
_LOW32 = np.uint64(0xFFFFFFFF)


def _mulhilo(m: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low words of the 128-bit products m * x, from 32-bit halves."""
    m_hi, m_lo = np.uint64(m >> 32), np.uint64(m & 0xFFFFFFFF)
    x_hi, x_lo = x >> np.uint64(32), x & _LOW32
    lo_lo, lo_hi, hi_lo = x_lo * m_lo, x_lo * m_hi, x_hi * m_lo
    carry = ((lo_lo >> np.uint64(32)) + (lo_hi & _LOW32) + (hi_lo & _LOW32)) >> np.uint64(32)
    hi = x_hi * m_hi + (lo_hi >> np.uint64(32)) + (hi_lo >> np.uint64(32)) + carry
    return hi, x * np.uint64(m)


def _philox4x64(
    counter: Sequence[np.ndarray], key: Sequence[np.ndarray]
) -> tuple[np.ndarray, ...]:
    """Philox4x64-10 blocks of a counter (four uint64 words) under a key (two).

    The words broadcast together, one block per element. The block of
    counter c is what numpy's ``Philox(counter=c - 1, key=k).random_raw(4)``
    returns, since numpy increments its counter before each block.
    """
    x0, x1, x2, x3, k0, k1 = (
        np.array(w, dtype=np.uint64) for w in np.broadcast_arrays(*counter, *key)
    )
    for r in range(10):
        if r:
            k0, k1 = k0 + _PHILOX_W[0], k1 + _PHILOX_W[1]
        hi0, lo0 = _mulhilo(_PHILOX_M[0], x0)
        hi1, lo1 = _mulhilo(_PHILOX_M[1], x2)
        x0, x1, x2, x3 = hi1 ^ x1 ^ k0, lo1, hi0 ^ x3 ^ k1, lo0
    return x0, x1, x2, x3


def _asset_keys(asset_ids: Iterable[bytes]) -> np.ndarray:
    """Philox key of each asset: the first 16 bytes of the sha256 of its
    id's UTF-8 bytes, as two little-endian uint64 words (rows)."""
    digests = b"".join(sha256(asset_id).digest()[:16] for asset_id in asset_ids)
    return np.frombuffer(digests, dtype="<u8").reshape(-1, 2).T.astype(np.uint64)


# assets whose blocks one Philox call draws
_DRAW_SLICE = 1 << 14


def _stream_draws(
    keys: np.ndarray, master_seed: int, rep_index: int, generations: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Failure uniform and rate normal of each (generation, asset).

    Generation g of the asset with key k takes the block at counter
    (g, rep_index, master_seed mod 2**64, 0) under k. Word 0 gives a
    uniform on [0, 1); words 1 and 2 give a standard normal by Box-Muller.
    Both results have shape (len(generations), number of keys). The blocks
    are drawn _DRAW_SLICE assets at a time, so that no temporary spans the
    whole fleet; each block depends only on its counter and key.
    """
    counter = (
        generations.astype(np.uint64)[:, None],
        np.uint64(rep_index),
        np.uint64(master_seed % 2**64),
        np.uint64(0),
    )
    u = np.empty((len(generations), keys.shape[1]))
    z = np.empty_like(u)
    for cols in (slice(lo, lo + _DRAW_SLICE) for lo in range(0, keys.shape[1], _DRAW_SLICE)):
        words = _philox4x64(counter, (keys[0, cols], keys[1, cols]))
        w0, w1, w2 = (w >> np.uint64(11) for w in words[:3])
        u[:, cols] = w0 * 2.0**-53
        radius = np.sqrt(-2.0 * np.log((w1 + np.uint64(1)) * 2.0**-53))
        z[:, cols] = radius * np.cos(2.0 * math.pi * w2 * 2.0**-53)
    return u, z


# index of the inspection class among the priority classes (corrective 0,
# planned 1, inspection 2)
_INSPECTION = 2

# The inspection pass takes the indices of a 1-D mask as `mask.nonzero()[0]`,
# which is `np.flatnonzero(mask)` without its wrapper calls: about ten
# calls a tick, on small arrays, where that overhead is most of the cost.

# generations of every asset drawn at the start of a replication; the
# tables double when an asset reaches the last one
_FIRST_GENERATIONS = 4


class _Engine:
    """A scenario's run over one fleet, on arrays: set up once per run, it
    checks the scenario against the fleet and builds what every replication
    shares; `run(rep)` then draws and runs replication `rep`."""

    def __init__(self, fleet: AssetTable, scenario: Scenario):
        self.scenario = scenario
        self.tick = scenario.tick_months
        self.tick_units = UNITS_PER_MONTH * self.tick
        self.tick_years = self.tick / 12.0
        self.tick_hours = HOURS_PER_MONTH * self.tick
        self.ticks_per_year = 12 // self.tick
        self.n_ticks = scenario.horizon_years * self.ticks_per_year

        if not len(fleet):
            raise ValueError("fleet is empty")
        failed = np.flatnonzero(fleet.failure)
        if len(failed):
            raise ValueError(
                f"asset {fleet.asset_id[failed[0]]!r} already failed; simulation takes an "
                "in-service fleet"
            )
        # the scenario's start date, or else the last commissioning day
        start = scenario.start_date or date.fromordinal(int(fleet.commission.max()))
        late = np.flatnonzero(fleet.commission > start.toordinal())
        if len(late):
            raise ValueError(
                f"asset {fleet.asset_id[late[0]]!r} commissioned after simulation start "
                f"{start.isoformat()}"
            )
        # assets in id order: UTF-8 byte order is code point order
        ids = fleet.asset_id.encoded()
        order = sorted(range(len(fleet)), key=ids.__getitem__)
        kv = fleet.voltage_kv[order].astype(np.int32)
        # ages at tick 0, in grid units
        self.age0 = UNITS_PER_DAY * (start.toordinal() - fleet.commission[order]).astype(np.int64)
        n = len(order)

        family = fleet.family[order]
        self.groups: dict[int, np.ndarray] = {
            f: np.nonzero(family == f)[0] for f in sorted(set(family.tolist()))
        }

        # Requests refer to activities by id into self.specs.
        spec_ids: dict[ActivitySpec, int] = {}
        catalog = scenario.catalog

        def per_asset(idx: np.ndarray, lookup: Callable[[int], ActivitySpec]) -> np.ndarray:
            kvs = sorted(set(kv[idx].tolist()))
            ids = [spec_ids.setdefault(lookup(v), len(spec_ids)) for v in kvs]
            return np.array(ids, dtype=np.int64)[np.searchsorted(kvs, kv[idx])]

        everyone = np.arange(n)
        # planned first: a corrective replacement falls back to the planned
        # one, so a missing one is named as planned
        self.planned_spec = per_asset(everyone, catalog.replacement)
        self.corrective_spec = per_asset(
            everyone, lambda v: catalog.replacement(v, corrective=True)
        )

        self.laws: dict[int, WeibullLaw] = {}
        self.is_time = np.zeros(n, dtype=bool)
        self.trigger_age = np.zeros(n)
        plans: dict[int, PeriodicInspections] = {}
        for f, idx in self.groups.items():
            if FAMILIES[f] not in scenario.laws:
                raise ValueError(f"scenario has no reliability law for family {FAMILIES[f].value}")
            self.laws[f] = scenario.laws[FAMILIES[f]]
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
        # ids are the order in which inspections due together are walked:
        # the entries of asset a are bounds[a] .. bounds[a + 1] - 1.
        cadences = np.zeros(n, dtype=np.int64)
        for f, plan in plans.items():
            cadences[self.groups[f]] = len(plan.interval_months)
        self.bounds = np.concatenate(([0], np.cumsum(cadences)))
        first_entry, n_entries = self.bounds[:-1], int(self.bounds[-1])
        self.entry_asset = np.repeat(everyone, cadences)
        self.entry_spec = np.zeros(n_entries, dtype=np.int64)
        # the start age in grid units, rounded up to the grid, and the
        # interval in ticks
        entry_start = np.zeros(n_entries, dtype=np.int64)
        self.entry_period = np.zeros(n_entries, dtype=np.int64)
        for f, plan in plans.items():
            idx = self.groups[f]
            years, per = plan.start_age_years.as_integer_ratio()
            for r, interval in enumerate(plan.interval_months):
                if interval % self.tick != 0:
                    raise ValueError(
                        f"inspection interval {interval} months is not a multiple "
                        f"of the {self.tick}-month tick"
                    )
                entry = first_entry[idx] + r
                self.entry_spec[entry] = per_asset(
                    idx, lambda v: catalog.inspection(v, interval)
                )
                entry_start[entry] = -(-years * UNITS_PER_YEAR // per)
                self.entry_period[entry] = interval // self.tick
        # the first due tick of each entry at set-up, and that of each entry
        # for a generation replaced at tick 0, from tick 1 on; a replacement
        # at tick k shifts the latter by k
        self.anchor0 = first_due(
            entry_start, self.age0[self.entry_asset], 0, 0, self.entry_period, self.tick_units
        )
        self.entry_restart = first_due(entry_start, 0, 0, 1, self.entry_period, self.tick_units)

        self.specs = list(spec_ids)
        self.person_hours = np.array([s.person_hours for s in self.specs])
        self.duration_hours = np.array([s.duration_hours for s in self.specs])
        # each entry's person-hours; a budget below the floor executes no
        # inspection, and a window of due ticks no wider than the shortest
        # period holds at most one request of each entry
        self.entry_hours = self.person_hours[self.entry_spec]
        self.floor = float(self.entry_hours.min(initial=math.inf))
        self.shortest = int(self.entry_period.min(initial=self.n_ticks))

        if isinstance(scenario.resources, Unconstrained):
            self.capacity: Optional[float] = None
        else:
            self.capacity = scenario.resources.tick_capacity(self.tick)
            for spec in self.specs:
                if scenario.resources.fte_count > 0 and spec.person_hours > self.capacity:
                    raise ValueError(
                        f"activity {spec.name!r} needs {spec.person_hours} person-hours "
                        f"but a full tick only provides {self.capacity}; it would never "
                        "schedule"
                    )

        self.keys = _asset_keys(ids)[:, order]

    def _start(self, rep: int) -> None:
        """Start replication `rep`: reset the cadences, counters and ledgers
        to the set-up state, then draw the first generations. Each array of
        the previous replication but `ticks` is freed as it is replaced,
        before this one's tables are drawn."""
        self.rep_index = rep
        n = len(self.age0)
        # anchor[e] is the first due tick of entry e in its asset's current
        # generation and oldest[e] that of its oldest inspection not executed;
        # both are n_ticks while the asset is out of service
        self.anchor = self.anchor0.copy()
        self.oldest = self.anchor0.copy()
        # an event touches the entries of a few assets, so it reads and
        # writes them an int at a time, through views of these four arrays
        self.views = tuple(
            map(memoryview, (self.bounds, self.anchor, self.oldest, self.entry_restart))
        )

        # requests raised per class, counted apart from their fate: a
        # corrective one at its failure, a planned one at its trigger tick
        # and inspections when their generation ends, at a failure, a
        # replacement or the horizon. Each is executed, dropped as stale by
        # the failure or replacement that makes it so, or still pending.
        self.raised = [0, 0, 0]
        self.examined = self.executed = self.dropped = 0
        # the year's executed inspections, in walk order, and the (anchor,
        # oldest, period, end) of each cadence entry it ended, as it ended:
        # both are counted at the year end
        self.walked: list[np.ndarray] = []
        self.ended: list[tuple[int, int, int, int]] = []

        horizon = self.scenario.horizon_years
        # what executed per (year, activity), the replacement requests
        # pending at each year end, and per year the failures, the ticks
        # failed assets waited for repair and the backlog at the year end
        self.replaced = np.zeros((horizon, len(self.specs)), dtype=np.int64)
        self.inspected = np.zeros_like(self.replaced)
        self.queued = np.zeros_like(self.replaced)
        self.failures = [0] * horizon
        self.gap_ticks = np.zeros(horizon, dtype=np.int64)
        self.backlog_hours = [0.0] * horizon

        # tables[0, g, i] and tables[1, g, i] are the ticks from the origin
        # of generation g of asset i to the tick it fails and to the tick it
        # requests its planned replacement, at least n_ticks if never (it
        # never reaches its trigger, or fails first)
        self.tables = np.empty((2, 0, n), dtype=np.int64)
        self.generation = np.zeros(n, dtype=np.int64)
        self._draw_generations(_FIRST_GENERATIONS)
        # the tick at which each asset's current generation fails, or
        # failed, and requests its planned replacement: the rows of `ticks`
        zero = np.zeros(n, dtype=np.int64)
        self.ticks = self._generation_rules(np.arange(n), zero, zero)

    # -- pending requests ---------------------------------------------------

    def _pending_inspections(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """The cadence entries with inspections pending at tick k, in id
        order, and how many each has.

        No queue holds them: each entry's pending inspections are its due
        ticks from its oldest not executed up to k. A failure or a
        replacement ends its asset's cadences, so a stale one is gone."""
        ids = (self.oldest <= k).nonzero()[0]
        return ids, due_before(self.oldest[ids], self.entry_period[ids], k + 1)

    def _walk(self, k: int, year: int, remaining: float) -> int:
        """Execute the inspections pending at tick k in (request tick, id)
        order within the budget, and complete them. Returns the next tick
        to walk: k + 1 if any was pending, else the oldest due tick.

        It walks (`_greedy_walk`) windows of request ticks, one tick wide
        from the oldest and then doubling, while the budget fits the floor.
        The first window holds one request of each entry, in id order; a
        later one lists each entry's due ticks in it (`due_before`) and
        sorts them, one at most for each entry while the window is no wider
        than the shortest period. An entry's copies need the same
        person-hours and the budget only shrinks, so its oldest execute
        first."""
        first, period = self.oldest, self.entry_period
        start = lo = int(np.minimum.reduce(first, initial=self.n_ticks))
        if start > k:
            return start
        ran = []
        while lo <= k and remaining >= self.floor:
            end = min(start + max(1, 2 * (lo - start)), k + 1)
            ids = (first < end).nonzero()[0]
            if lo > start:
                f, p = first[ids], period[ids]
                if end - lo <= self.shortest:
                    # at most one copy of each entry, its first due from lo
                    due = f + due_before(f, p, lo) * p
                    keep = due < end
                    ids, due = ids[keep], due[keep]
                else:
                    # the copies due in [lo, end), the j-th at first + j * period
                    skip, upto = due_before(f, p, np.array([[lo], [end]]))
                    count = upto - skip
                    due = np.repeat(f + (skip - np.cumsum(count) + count) * p, count)
                    ids = np.repeat(ids, count)
                    due += np.arange(len(ids)) * period[ids]
                ids = ids[np.argsort(due, kind="stable")]
            self.examined += len(ids)
            taken, remaining = _greedy_walk(self.entry_hours[ids], remaining)
            ran.append(ids[taken])
            lo = end
        done = np.concatenate(ran) if ran else first[:0]
        if len(done):
            np.add.at(self.oldest, done, period[done])
            self._complete(done, k, year)
        return k + 1

    def _backlog_person_hours(self, k: int) -> float:
        """Person-hours of the requests pending at year-end tick k: the
        replacement requests the replacement pass left, and the inspections."""
        ids, count = self._pending_inspections(k)
        # float weights, but whole and far below 2**53, so exact
        queued = self.queued[k // self.ticks_per_year] + np.bincount(
            self.entry_spec[ids], weights=count, minlength=len(self.specs)
        )
        return _exact_sums(queued.astype(np.int64)[None], self.person_hours)[0]

    def _entries(self, assets: Sequence[int]) -> list[int]:
        """The cadence entries of the given assets, in id order."""
        bounds = self.views[0]
        return [e for a in assets for e in range(bounds[a], bounds[a + 1])]

    def _end_cadences(self, entry: list[int], end: int) -> None:
        """End cadence entries of assets that fail at tick `end`, or are
        replaced at tick `end - 1`: the inspections their generation raised
        are those due below `end`, and those not executed are dropped. Both
        are counted at the year end (`_close_year`)."""
        _, anchor, oldest, _ = self.views
        period = self.entry_period
        self.ended += [(anchor[e], oldest[e], period[e], end) for e in entry]

    # -- tick steps ----------------------------------------------------------

    def _failure_ages(
        self, generations: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Start age, failure age (years) and rate of each (generation, asset).

        Generation 0 is at risk from the start age; every later one from age
        one tick, since its replacement tick is not sampled.
        """
        u, z = _stream_draws(self.keys, self.scenario.master_seed, self.rep_index, generations)
        rates = self.scenario.degradation_rates.from_normals(z)
        start = np.where(generations[:, None] == 0, self.age0 / UNITS_PER_YEAR, self.tick_years)
        e = -np.log1p(-u)
        ages = np.empty_like(u)
        apparent = self.scenario.hazard_age == "apparent"
        for f, idx in self.groups.items():
            # under the apparent hazard, the law's scale is eta / r; where the
            # scaled start overflows, the asset fails at its start age
            r = rates[:, idx] if apparent else 1.0
            with np.errstate(over="ignore"):
                scaled = start[:, idx] * r
            age = self.laws[f].conditional_failure_age(scaled, e[:, idx]) / r
            ages[:, idx] = np.where(np.isinf(scaled), start[:, idx], age)
        return start, ages, rates

    def _draw_generations(self, count: int) -> None:
        """Append the next `count` generations of every asset to the tables.

        Generation 0 starts from its start age at tick 0. A later one starts
        from age 0 at its replacement tick, and is first at risk and armed
        a tick later. With failures disabled, no generation fails.
        """
        first = self.tables.shape[1]
        generations = np.arange(first, first + count)
        start, ages, rates = self._failure_ages(generations)
        later = np.broadcast_to((generations > 0)[:, None], ages.shape)
        if self.scenario.failures_enabled:
            # rounding can put an age a hair below its start when e is tiny
            life = np.clip(np.floor((ages - start) / self.tick_years), 0, self.n_ticks)
        else:
            life = np.full(ages.shape, self.n_ticks)
        # the age is multiplied by 1.0 for time-based assets (exact, so they
        # compare their age), else by the degradation rate
        rate = np.where(self.is_time, 1.0, rates)
        age, rate, trigger_age = (
            np.broadcast_to(a, ages.shape).ravel()
            for a in (np.where(later, 0, self.age0), rate, self.trigger_age)
        )
        delay = trigger_delay(age, rate, trigger_age, self.tick_units, self.n_ticks)
        life = life.astype(np.int64) + later
        trigger = delay.reshape(ages.shape)
        drawn = np.stack((life, np.where(trigger < life, trigger, self.n_ticks)))
        self.tables = np.concatenate((self.tables, drawn), axis=1)

    def _generation_rules(
        self, assets: np.ndarray, generation: np.ndarray, origin: np.ndarray
    ) -> np.ndarray:
        """The tick at which the given generation of each asset, started at
        tick `origin`, fails, and the tick at which it requests its planned
        replacement: when it reaches its trigger, if it has not failed by
        then, else n_ticks or later (never). Rows 0 and 1; the tables
        double until they hold the generation."""
        while generation.max(initial=0) >= self.tables.shape[1]:
            self._draw_generations(self.tables.shape[1])
        return self.tables[:, generation, assets] + origin

    def _apply(self, k: int, event: tuple) -> None:
        """Apply to the cadences a tick's failures and replacements, an
        event of `schedule_replacements`: end the cadences of the assets
        that fail at tick k and of those replaced, and restart those of the
        latter from age 0, due from the next tick on. A failed asset's
        cadences ended at its failure, so ending them again adds nothing."""
        _, failed, renewed, _ = event
        _, anchor, oldest, restart = self.views
        entry = self._entries(failed)
        if entry:
            self._end_cadences(entry, k)
            for e in entry:
                anchor[e] = oldest[e] = self.n_ticks
        entry = self._entries(renewed)
        if entry:
            self._end_cadences(entry, k + 1)
            for e in entry:
                anchor[e] = oldest[e] = k + restart[e]

    def _complete(self, entries: np.ndarray, k: int, year: int) -> None:
        """Book the inspections executed at tick k, in walk order; they are
        counted per activity at the year end (`_close_year`)."""
        self.executed += len(entries)
        self.walked.append(entries)

    def _close_year(self, k: int, year: int) -> None:
        """At year-end tick k, count the year's executed inspections per
        activity, and the inspections raised and dropped by the cadences it
        ended, and book the backlog."""
        if self.walked:
            entries = np.concatenate(self.walked)
            self.inspected[year] = np.bincount(self.entry_spec[entries], minlength=len(self.specs))
        if self.ended:
            ended = np.array(self.ended)
            counts = due_before(ended[:, :2].T, ended[:, 2], ended[:, 3]).sum(axis=1).tolist()
            self.raised[_INSPECTION] += counts[0]
            self.dropped += counts[1]
        self.walked, self.ended = [], []
        self.backlog_hours[year] = self._backlog_person_hours(k)

    def _book(self) -> KpiSeries:
        """The KPIs from what executed: money as exact Decimal products of
        the counts per (year, activity), and hours as exact sums rounded
        once (`_exact_sums`), the gap ticks at `tick_hours` each."""
        return KpiSeries(
            capex=self._cost(self.replaced),
            opex=self._cost(self.inspected),
            inspection_hours=_exact_sums(self.inspected, self.duration_hours),
            unavailability_hours=_exact_sums(
                np.column_stack((self.replaced + self.inspected, self.gap_ticks)),
                [*self.duration_hours.tolist(), self.tick_hours],
            ),
            failures=self.failures,
            replacements=self.replaced.sum(axis=1).tolist(),
            backlog_hours=self.backlog_hours,
        )

    def _cost(self, count: np.ndarray) -> list[Decimal]:
        ledger = [Decimal(0)] * len(count)
        for year, s in zip(*np.nonzero(count)):
            ledger[year] += self.specs[s].total_cost * int(count[year, s])
        return ledger

    def run(self, rep: int) -> KpiSeries:
        """Draw and run replication `rep`, by the pass its pool needs."""
        self._start(rep)
        if self.capacity is None:
            # the open pool's run (`generations.run_open_pool`); the assets'
            # state stays as `_start` drew it
            failed, self.replaced, self.inspected, self.raised, self.dropped = run_open_pool(self)
            self.failures = failed.tolist()
            self.examined = sum(self.raised)
            self.executed = self.examined - self.dropped
            return self._book()
        events = schedule_replacements(self)
        # the inspection pass; `due` is the next tick with an inspection due
        due = 0
        for k in range(self.n_ticks):
            year = k // self.ticks_per_year
            event = events.get(k)
            if event is not None:
                self._apply(k, event)
                due = k
            if due <= k:
                due = self._walk(k, year, self.capacity if event is None else event[0])
            if (k + 1) % self.ticks_per_year == 0:
                self._close_year(k, year)
        # the inspections of the generations that outlive the horizon
        self.raised[_INSPECTION] += int(due_before(self.anchor, self.entry_period, self.n_ticks).sum())
        return self._book()


def _exact_sums(counts: np.ndarray, values: Sequence[float]) -> list[float]:
    """Each row's sum of count x value over the columns, exact and rounded
    once: what `math.fsum` gives for the terms listed one by one, or inf
    past the float range. Floats are dyadic rationals, so the sum is an
    integer over the largest denominator."""
    ratios = [float(v).as_integer_ratio() for v in values]
    denominator = max((d for _, d in ratios), default=1)
    scaled = [n * (denominator // d) for n, d in ratios]
    sums = []
    for row in counts.tolist():
        try:
            sums.append(sum(map(int.__mul__, row, scaled)) / denominator)
        except OverflowError:
            sums.append(math.inf)
    return sums


def run_scenario(
    fleet: AssetTable, scenario: Scenario, jobs: int = 1
) -> SimulationReport:
    """Run all replications of a scenario and aggregate them.

    Replications are independent and may run in parallel; the report is a
    pure function of (fleet, scenario) regardless of jobs. A report holding
    a value past the float range, which its reader refuses, is refused.
    """
    engine = _Engine(fleet, scenario)
    reps = range(scenario.replications)
    if jobs > 1 and scenario.replications > 1:
        # imported here: the pool modules cost every CLI start-up otherwise
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(jobs, scenario.replications)) as pool:
            series = list(pool.map(engine.run, reps))
    else:
        series = list(map(engine.run, reps))
    report = SimulationReport(
        scenario_name=scenario.name,
        master_seed=scenario.master_seed,
        horizon_years=scenario.horizon_years,
        tick_months=scenario.tick_months,
        replications=series,
        aggregates=aggregate_replications(series),
    )
    report.check_finite()
    return report
