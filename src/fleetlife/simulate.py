"""Monte-Carlo fleet simulation under replacement and inspection policies.

The clock advances in monthly ticks. Each tick: failures are sampled from the
family reliability laws, policy triggers raise activity requests, and a
resource pool executes requests in priority order (corrective replacements,
then planned replacements, then inspections; FIFO by request tick then
asset_id within a class). Activities are atomic within a tick; a request
that does not fit the capacity left in the tick carries over with its
original timestamp, and later requests may still use what is left.

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

The engine (`_Engine`) runs one replication on arrays, and the work of its
inspection and allocation steps follows what a tick raises and executes
rather than fleet size or backlog length:

* Inspections keep one next-check tick per (asset, cadence). A check
  applies the cadence rule to the age the engine holds, and books the next
  tick at which that rule holds; a replacement books the asset's cadences
  again from age 0.
* Replacement triggers read an ``armed`` mask (in service, no planned
  replacement pending) and a per-asset trigger rate (1 for time-based, the
  degradation rate for condition-based), both updated only on failure,
  trigger and replacement.
* An open pool (`Unconstrained`) has no clock (`generations.OpenPool`).
  No queue couples its assets, so each asset's history is a chain of
  generations, simulated one round at a time: every generation ends at its
  failure tick or its trigger tick, whichever comes first (a failure wins a
  tie), both in closed form. Its inspections are counted in closed form
  too, a year at a time, up to that end; those raised at the tick of a
  planned replacement are dropped. So the report is the one the tick loop
  gives under a pool that never binds, and the backlog is always zero.
* Queues exist only for a constrained pool, whose run steps tick by tick.
  Each priority class is a FIFO queue held as two int rows: the request's
  id (the asset for a replacement, the cadence entry for an inspection)
  and its asset's generation at request time. Allocation reads a queue
  from its head in windows of doubling width, drops the stale entries of
  the windows it reads, and stops once the budget is below the smallest
  activity that can enter the class; the unread rest stays as it is.
* The engine counts the live queued inspections of each cadence entry, so
  the year-end backlog needs no pass over the inspection queue. Its stale
  entries are dropped when they exceed an eighth of the live ones at a
  year end, and before the buffer moves or grows.
* Each asset holds the tick at which its current generation fails. The
  failure ticks and rates of generations ``0 .. G-1`` of every asset are
  drawn at set-up in one call, and ``G`` doubles when an asset reaches it.

Determinism contract: every draw is a pure function of its coordinates.
Asset generation ``g`` of replication ``rep`` takes one Philox4x64-10 block,
keyed by the first 16 bytes of ``sha256(asset_id)``, at counter
``(g, rep, master_seed mod 2**64, 0)``. Word 0 gives its failure uniform,
words 1 and 2 the normal its degradation rate is drawn from. Results are
therefore independent of iteration and scheduling order, including
parallel execution of replications, and two scenarios that differ only in
policy or resources draw the same failure age for the same generation.
"""

from __future__ import annotations

import enum
import hashlib
import math
from dataclasses import dataclass
from datetime import date
from decimal import Decimal
from typing import Callable, Mapping, Optional, Sequence, Union

import numpy as np

from .fleet import FAMILIES, AssetTable, VoltageClass
from .generations import (
    UNITS_PER_DAY,
    UNITS_PER_MONTH,
    UNITS_PER_YEAR,
    OpenPool,
    _trigger_reached,
)
from .reports import (
    METRICS,
    AggregateSeries,
    ComparisonReport,
    KpiSeries,
    SimulationReport,
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

    def __post_init__(self) -> None:
        if not (self.value > 0 and math.isfinite(self.value)):
            raise ValueError(f"rate must be positive and finite, got {self.value}")

    def from_normals(self, z: np.ndarray) -> np.ndarray:
        """The rate drawn with each standard normal."""
        return np.full(z.shape, self.value)


@dataclass(frozen=True)
class LognormalRate:
    mu: float = 0.0
    sigma: float = 0.2

    def __post_init__(self) -> None:
        if self.sigma < 0:
            raise ValueError("sigma must be >= 0")

    def from_normals(self, z: np.ndarray) -> np.ndarray:
        """The rate drawn with each standard normal."""
        return np.exp(self.mu + self.sigma * z)


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


def _asset_keys(asset_ids: Sequence[str]) -> np.ndarray:
    """Philox key of each asset: the first 16 bytes of sha256(asset_id), as
    two little-endian uint64 words (rows)."""
    digests = b"".join(
        hashlib.sha256(asset_id.encode("utf-8")).digest()[:16] for asset_id in asset_ids
    )
    return np.frombuffer(digests, dtype="<u8").reshape(-1, 2).T.astype(np.uint64)


def _stream_draws(
    keys: np.ndarray, master_seed: int, rep_index: int, generations: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Failure uniform and rate normal of each (generation, asset).

    Generation g of the asset with key k takes the block at counter
    (g, rep_index, master_seed mod 2**64, 0) under k. Word 0 gives a
    uniform on [0, 1); words 1 and 2 give a standard normal by Box-Muller.
    Both results have shape (len(generations), number of keys).
    """
    words = _philox4x64(
        (
            generations.astype(np.uint64)[:, None],
            np.uint64(rep_index),
            np.uint64(master_seed % 2**64),
            np.uint64(0),
        ),
        (keys[0], keys[1]),
    )
    w0, w1, w2 = (w >> np.uint64(11) for w in words[:3])
    u = w0 * 2.0**-53
    radius = np.sqrt(-2.0 * np.log((w1 + np.uint64(1)) * 2.0**-53))
    return u, radius * np.cos(2.0 * math.pi * w2 * 2.0**-53)


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
    for kv in sorted(set(fleet.voltage_kv.tolist())):
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

    A request is two numbers, the rows of ``buf``: an id, which is the asset
    for a replacement and the cadence entry for an inspection, and the
    generation of its asset when it was raised. The queue is the column
    range ``[head, tail)``. Entries stay in (request tick, id) order: each
    tick's requests are appended sorted by id; allocation packs the
    survivors of the prefix it read back against the unread rest
    (`pack_prefix`), and dropping stale entries keeps the live ones
    (`keep`), both in order. Id order is asset_id order, and within an
    asset, plan order.

    ``floor`` is the smallest person-hours of any activity that can enter
    the class, so a budget below it can execute nothing that is queued.
    """

    def __init__(self, floor: float) -> None:
        self.floor = floor
        self.buf = np.empty((2, 256), dtype=np.int64)
        self.head = self.tail = 0

    def __len__(self) -> int:
        return self.tail - self.head

    def entries(self) -> np.ndarray:
        return self.buf[:, self.head : self.tail]

    def fits(self, count: int) -> bool:
        """Whether `count` more entries fit behind the tail."""
        return self.tail + count <= self.buf.shape[1]

    def keep(self, live: np.ndarray) -> None:
        """Keep only the entries where the mask `live` holds, in order.

        The survivors move to the front of the buffer a block at a time, so
        no copy of the whole queue and no index over it is ever held.
        """
        entries, size = self.entries(), 0
        for lo in range(0, len(live), _KEEP_BLOCK):
            block = entries[:, lo : lo + _KEEP_BLOCK]
            kept = block.take(live[lo : lo + _KEEP_BLOCK].nonzero()[0], axis=1)
            # kept is a copy, and every column it lands on was read already
            self.buf[:, size : size + kept.shape[1]] = kept
            size += kept.shape[1]
        self.head, self.tail = 0, size

    def pack_prefix(self, end: int, survivors: np.ndarray) -> None:
        """Replace the entries before column `end` by `survivors`."""
        self.head = end - survivors.shape[1]
        self.buf[:, self.head : end] = survivors

    def push(self, ids: np.ndarray, generation: np.ndarray) -> None:
        end = self.tail + len(ids)
        if end > self.buf.shape[1]:
            # move to the front of a buffer with room for as many entries
            # again, so copying stays amortized O(1) per entry
            size = len(self)
            buf = np.empty(
                (2, max(self.buf.shape[1], 2 * (size + len(ids)))), dtype=np.int64
            )
            buf[:, :size] = self.entries()
            self.buf, self.head, self.tail = buf, 0, size
            end = size + len(ids)
        self.buf[0, self.tail : end] = ids
        self.buf[1, self.tail : end] = generation
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
        misfit = (left[1:] < 0).nonzero()[0]
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


# queue index of each priority class
_CORRECTIVE, _PLANNED, _INSPECTION = 0, 1, 2

# The tick loop takes the indices of a 1-D mask as `mask.nonzero()[0]`,
# which is `np.flatnonzero(mask)` without its wrapper calls: about ten
# calls a tick, on small arrays, where that overhead is most of the cost.

# generations of every asset drawn at set-up; the tables double when an
# asset reaches the last one
_FIRST_GENERATIONS = 4

# entries an allocation reads first from a queue; each further window is
# twice as wide
_FIRST_WINDOW = 64

# queue entries the year-end pass compacts at a time
_KEEP_BLOCK = 8192


class _Engine:
    """One replication over vectorized asset state and array request queues."""

    def __init__(
        self,
        fleet: AssetTable,
        scenario: Scenario,
        rep_index: int,
        keys: Optional[np.ndarray] = None,
    ):
        """`keys` are `_asset_keys(fleet.asset_id)`, computed here if not given."""
        self.scenario = scenario
        self.rep_index = rep_index
        self.tick = scenario.tick_months
        self.tick_units = UNITS_PER_MONTH * self.tick
        self.tick_years = self.tick / 12.0
        self.tick_hours = HOURS_PER_MONTH * self.tick
        self.ticks_per_year = 12 // self.tick
        self.n_ticks = scenario.horizon_years * self.ticks_per_year

        start = scenario.start_date or date.fromordinal(int(fleet.commission.max()))
        # assets in id order
        order = sorted(range(len(fleet)), key=fleet.asset_id.__getitem__)
        self.kv = fleet.voltage_kv[order].astype(np.int32)
        # ages in grid units: at tick 0, and as the tick loop holds them
        self.age0 = UNITS_PER_DAY * (start.toordinal() - fleet.commission[order]).astype(np.int64)
        self.age = self.age0.copy()
        n = len(order)
        self.in_service = np.ones(n, dtype=bool)
        # in service with no planned replacement pending
        self.armed = np.ones(n, dtype=bool)
        self.generation = np.zeros(n, dtype=np.int64)

        self.family = fleet.family[order]
        self.groups: dict[int, np.ndarray] = {
            f: np.nonzero(self.family == f)[0] for f in sorted(set(self.family.tolist()))
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
            kvs = sorted(set(self.kv[idx].tolist()))
            ids = np.array([spec_id(lookup(kv)) for kv in kvs], dtype=np.int64)
            return ids[np.searchsorted(kvs, self.kv[idx])]

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
        # in grid units, the start age rounded up to the grid
        self.entry_start = np.zeros(n_entries, dtype=np.int64)
        self.entry_interval = np.zeros(n_entries, dtype=np.int64)
        for f, plan in plans.items():
            idx = self.groups[f]
            years, per = plan.start_age_years.as_integer_ratio()
            for r, interval in enumerate(plan.interval_months):
                entry = first_entry[idx] + r
                self.entry_spec[entry] = per_asset(
                    idx, lambda kv: catalog.inspection(kv, interval)
                )
                self.entry_start[entry] = -(-years * UNITS_PER_YEAR // per)
                self.entry_interval[entry] = UNITS_PER_MONTH * interval
        # entries of each asset, -1 padded
        slot = np.arange(cadences.max(initial=0))
        self.entries_of = np.where(
            slot < cadences[:, None], first_entry[:, None] + slot, -1
        )
        # next_check[e] is the next tick at which entry e can fall due; every
        # entry is first checked at tick 0
        self.next_check = np.zeros(n_entries, dtype=np.int64)

        self.specs = list(spec_ids)
        self.person_hours = np.array([s.person_hours for s in self.specs])
        self.duration_hours = np.array([s.duration_hours for s in self.specs])

        self.keys = (_asset_keys(fleet.asset_id) if keys is None else keys)[:, order]
        # life[g, i] is the number of ticks from the tick generation g of
        # asset i is first at risk to the tick it fails, capped at n_ticks;
        # rate_table[g, i] is its degradation rate
        self.life = np.empty((0, n), dtype=np.int64)
        self.rate_table = np.empty((0, n))
        self._draw_generations(_FIRST_GENERATIONS)
        self.rates = self.rate_table[0].copy()
        # the tick at which each asset's current generation fails, or
        # failed, and its trigger rate; generation 0 is at risk from tick 0
        zero = np.zeros(n, dtype=np.int64)
        self.fail_tick, self.trigger_rate = self._generation_rules(everyone, zero, zero)

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
        # the activity of each class's request ids, and its person-hours
        self.class_spec = (self.corrective_spec, self.planned_spec, self.entry_spec)
        self.class_hours = tuple(self.person_hours[spec] for spec in self.class_spec)
        # live queued inspections of each cadence entry
        self.queued_inspections = np.zeros(n_entries, dtype=np.int64)
        # requests raised per class; read (from a queue by allocation, or as
        # raised in an open pool), executed, and dropped as stale (when read
        # by allocation, at a year end, or before a queue's buffer moves)
        self.raised = [0, 0, 0]
        self.examined = self.executed = self.dropped = 0

        self.kpis = KpiSeries.zeros(scenario.horizon_years)
        # what executed per (year, activity), and the ticks failed assets
        # waited for their corrective replacement, per year
        self.replaced = np.zeros((scenario.horizon_years, len(self.specs)), dtype=np.int64)
        self.inspected = np.zeros_like(self.replaced)
        self.gap_ticks = np.zeros(scenario.horizon_years, dtype=np.int64)

    # -- request plumbing ---------------------------------------------------

    def _assets(self, cls: int, ids: np.ndarray) -> np.ndarray:
        """The asset of each request id of a class."""
        return self.entry_asset[ids] if cls == _INSPECTION else ids

    def _push(self, cls: int, ids: np.ndarray) -> None:
        self.raised[cls] += len(ids)
        if not len(ids):
            return
        queue = self.queues[cls]
        if not queue.fits(len(ids)):
            # the buffer would move or grow: its stale entries go first
            self._drop_stale(cls)
        queue.push(ids, self.generation[self._assets(cls, ids)])
        if cls == _INSPECTION:
            # a tick raises each cadence entry at most once
            self.queued_inspections[ids] += 1

    def _live(self, cls: int, entries: np.ndarray) -> np.ndarray:
        """Mask of queue entries (rows id, generation) not stale.

        A request is stale once its asset was replaced after it was raised,
        and an inspection also once its asset is out of service. Staleness
        never reverts (generations only grow), so stale requests can be
        dropped whenever they are read.
        """
        asset = self._assets(cls, entries[0])
        live = entries[1] == self.generation[asset]
        if cls == _INSPECTION:
            live &= self.in_service[asset]
        return live

    def _drop_stale(self, cls: int) -> None:
        """Read a class's queue whole and keep its live entries."""
        queue = self.queues[cls]
        read = len(queue)
        queue.keep(self._live(cls, queue.entries()))
        self.dropped += read - len(queue)

    def _walk(self, cls: int, remaining: float) -> tuple[np.ndarray, float]:
        """Execute a class's requests from the head of its queue.

        Reads windows of doubling width until the (finite) budget is below
        the class floor or the queue ends. Each window drops its stale
        entries and walks the rest with `_greedy_walk`; the survivors of the
        windows read are packed back in order, and entries beyond them are
        not touched. Returns the ids executed and the budget left.
        """
        queue = self.queues[cls]
        lo, width = queue.head, _FIRST_WINDOW
        ran: list[np.ndarray] = []
        kept: list[np.ndarray] = []
        while lo < queue.tail and remaining >= queue.floor:
            hi = min(lo + width, queue.tail)
            window = queue.buf[:, lo:hi]
            live = self._live(cls, window)
            pos = live.nonzero()[0]
            taken, remaining = _greedy_walk(self.class_hours[cls][window[0, pos]], remaining)
            done = pos[taken]
            live[done] = False
            ran.append(window[0, done])
            kept.append(window.take(live.nonzero()[0], axis=1))
            self.examined += hi - lo
            self.dropped += hi - lo - len(pos)
            lo, width = hi, 2 * width
        if not ran:
            return np.empty(0, dtype=np.int64), remaining
        queue.pack_prefix(lo, np.concatenate(kept, axis=1))
        return np.concatenate(ran), remaining

    def _allocate_and_complete(self, k: int, year: int) -> None:
        # Classes run in priority order and each one completes before the
        # next is walked, so a replacement executed here makes the queued
        # requests of its asset stale before a later class is read. Within
        # one class no completion can make another entry stale: an asset has
        # at most one live replacement request per class, and inspections
        # change no state.
        remaining = self.capacity
        for cls, queue in enumerate(self.queues):
            if not len(queue):
                continue
            ids, remaining = self._walk(cls, remaining)
            if len(ids):
                if cls == _INSPECTION:
                    np.subtract.at(self.queued_inspections, ids, 1)
                self._complete(cls, self._assets(cls, ids), self.class_spec[cls][ids], k, year)

    def _backlog_person_hours(self) -> float:
        """Person-hours of the live queued requests, at a year end.

        The replacement queues are short, and are read whole, which drops
        their stale entries. Inspections are counted per cadence entry
        instead, so a long carried inspection queue is read only once its
        stale entries, which allocation drops only where it reads, exceed an
        eighth of its live ones.
        """
        queued = np.zeros(len(self.specs), dtype=np.int64)
        for cls in (_CORRECTIVE, _PLANNED):
            self._drop_stale(cls)
            ids = self.queues[cls].entries()[0]
            queued += np.bincount(self.class_spec[cls][ids], minlength=len(self.specs))
        np.add.at(queued, self.entry_spec, self.queued_inspections)
        live = int(self.queued_inspections.sum())
        if 8 * (len(self.queues[_INSPECTION]) - live) > live:
            self._drop_stale(_INSPECTION)
        return _exact_sums(queued[None], self.person_hours)[0]

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
            # under the apparent hazard, the law's scale is eta / r
            r = rates[:, idx] if apparent else 1.0
            ages[:, idx] = self.laws[f].conditional_failure_age(start[:, idx] * r, e[:, idx]) / r
        return start, ages, rates

    def _draw_generations(self, count: int) -> None:
        """Append the next `count` generations of every asset to the tables."""
        start, ages, rates = self._failure_ages(
            np.arange(len(self.life), len(self.life) + count)
        )
        # rounding can put an age a hair below its start when e is tiny
        life = np.clip(np.floor((ages - start) / self.tick_years), 0, self.n_ticks)
        self.life = np.concatenate((self.life, life.astype(np.int64)))
        self.rate_table = np.concatenate((self.rate_table, rates))

    def _generation_rules(
        self, assets: np.ndarray, generation: np.ndarray, first_at_risk: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """For the given generation of each asset: the tick at which it
        fails, its drawn life in ticks after the tick it is first at risk;
        and what its age is multiplied by for its replacement trigger, 1.0
        for time-based assets (exact, so they compare their age), else its
        degradation rate. The tables double until they hold the generation.
        """
        while generation.max(initial=0) >= len(self.life):
            self._draw_generations(len(self.life))
        fail = first_at_risk + self.life[generation, assets]
        return fail, np.where(self.is_time[assets], 1.0, self.rate_table[generation, assets])

    def _draw_failures(self, k: int, year: int) -> np.ndarray:
        failed = (self.fail_tick == k).nonzero()[0]
        self.in_service[failed] = False
        self.armed[failed] = False
        if len(failed):
            # their queued inspections are stale
            entry = self.entries_of[failed]
            self.queued_inspections[entry[entry >= 0]] = 0
        self.kpis.failures[year] += len(failed)
        return failed

    def _replacement_triggers(self) -> np.ndarray:
        """Armed assets that reach their trigger (`_trigger_reached`); they
        are disarmed until replaced."""
        due = (
            self.armed & _trigger_reached(self.age, self.trigger_rate, self.trigger_age)
        ).nonzero()[0]
        self.armed[due] = False
        return due

    def _inspection_triggers(self, k: int) -> np.ndarray:
        """Cadence entries due at tick k, from the entries checked at tick k.

        A cadence is due when its asset is in service and, on ``since = age
        - start``, ``since >= 0 and since % interval < tick`` holds. Each
        checked entry, whether or not its asset could be inspected, is
        booked for the next tick at which that rule holds: where the age
        reaches the start age, or where the phase ``since % interval`` wraps
        past the interval. All of them are whole grid units, so that tick is
        exact.
        """
        entry = (self.next_check == k).nonzero()[0]
        asset = self.entry_asset[entry]
        since = self.age[asset] - self.entry_start[entry]
        interval = self.entry_interval[entry]
        phase = since % interval
        due = (since >= 0) & (phase < self.tick_units) & self.in_service[asset]
        ahead = np.where(since < 0, -since, interval - phase)
        self.next_check[entry] = k - (-ahead // self.tick_units)
        return entry[due]

    def _complete(
        self, cls: int, assets: np.ndarray, specs: np.ndarray, k: int, year: int
    ) -> None:
        """Book the executed requests of one class, in order.

        The tick loop completes its work here and only here.
        """
        self.executed += len(assets)
        count = np.bincount(specs, minlength=len(self.specs))
        if cls == _INSPECTION:
            self.inspected[year] += count
        else:
            self.replaced[year] += count
            self._replace(assets, k, year)

    def _replace(self, assets: np.ndarray, k: int, year: int) -> None:
        """Renew the assets replaced at tick k."""
        failed = assets[~self.in_service[assets]]
        self.gap_ticks[year] += int((k - self.fail_tick[failed]).sum())
        self.age[assets] = 0
        self.in_service[assets] = True
        self.armed[assets] = True
        self.generation[assets] += 1
        generation = self.generation[assets]
        # the new generation is first at risk at tick k + 1
        self.fail_tick[assets], self.trigger_rate[assets] = self._generation_rules(
            assets, generation, k + 1
        )
        self.rates[assets] = self.rate_table[generation, assets]
        # the cadences restart from age 0, checked from the next tick, and
        # the inspections queued for the old generation are stale
        entry = self.entries_of[assets]
        entry = entry[entry >= 0]
        self.next_check[entry] = k + 1
        self.queued_inspections[entry] = 0

    def _book(self) -> KpiSeries:
        """The KPIs from what executed: money as exact Decimal products of
        the counts per (year, activity), and hours as exact sums rounded
        once (`_exact_sums`), the gap ticks at `tick_hours` each."""
        kpis = self.kpis
        kpis.capex = self._cost(self.replaced)
        kpis.opex = self._cost(self.inspected)
        kpis.replacements = self.replaced.sum(axis=1).tolist()
        kpis.inspection_hours = _exact_sums(self.inspected, self.duration_hours)
        kpis.unavailability_hours = _exact_sums(
            np.column_stack((self.replaced + self.inspected, self.gap_ticks)),
            [*self.duration_hours.tolist(), self.tick_hours],
        )
        return kpis

    def _cost(self, count: np.ndarray) -> list[Decimal]:
        ledger = [Decimal(0)] * len(count)
        for year, s in zip(*np.nonzero(count)):
            ledger[year] += self.specs[s].total_cost * int(count[year, s])
        return ledger

    def _run_open_pool(self) -> KpiSeries:
        """The open pool's run (`generations.OpenPool`), booked into the
        KPIs and the request counters; the assets' state stays as set up."""
        failures, self.replaced, self.inspected, self.raised, self.dropped = OpenPool(
            tick=self.tick_units,
            ticks_per_year=self.ticks_per_year,
            n_ticks=self.n_ticks,
            age0=self.age0,
            trigger_age=self.trigger_age,
            corrective_spec=self.corrective_spec,
            planned_spec=self.planned_spec,
            entries_of=self.entries_of,
            entry_start=self.entry_start,
            entry_interval=self.entry_interval,
            entry_spec=self.entry_spec,
            n_specs=len(self.specs),
            failures_enabled=self.scenario.failures_enabled,
            generation_rules=self._generation_rules,
        ).run()
        self.kpis.failures = failures.tolist()
        self.examined = sum(self.raised)
        self.executed = self.examined - self.dropped
        return self._book()

    def run(self) -> KpiSeries:
        if self.capacity is None:
            return self._run_open_pool()
        no_failures = np.empty(0, dtype=np.int64)
        for k in range(self.n_ticks):
            if k > 0:
                self.age += self.tick_units
            year = (k * self.tick) // 12
            failed = (
                self._draw_failures(k, year) if self.scenario.failures_enabled else no_failures
            )
            due = self._replacement_triggers()
            inspections = self._inspection_triggers(k)
            self._push(_CORRECTIVE, failed)
            self._push(_PLANNED, due)
            self._push(_INSPECTION, inspections)
            self._allocate_and_complete(k, year)
            if (k + 1) % self.ticks_per_year == 0:
                self.kpis.backlog_hours[year] = self._backlog_person_hours()
        return self._book()


def _exact_sums(counts: np.ndarray, values: Sequence[float]) -> list[float]:
    """Each row's sum of count x value over the columns, exact and rounded
    once: what `math.fsum` gives for the terms listed one by one. Floats are
    dyadic rationals, so the sum is an integer over the largest denominator."""
    ratios = [float(v).as_integer_ratio() for v in values]
    denominator = max((d for _, d in ratios), default=1)
    scaled = [n * (denominator // d) for n, d in ratios]
    return [sum(map(int.__mul__, row, scaled)) / denominator for row in counts.tolist()]


def _replication_worker(args: tuple) -> KpiSeries:
    return _Engine(*args).run()


def run_scenario(
    fleet: AssetTable, scenario: Scenario, jobs: int = 1
) -> SimulationReport:
    """Run all replications of a scenario and aggregate them.

    Replications are independent and may run in parallel; the report is a
    pure function of (fleet, scenario) regardless of jobs.
    """
    validate_scenario_for_fleet(fleet, scenario)
    keys = _asset_keys(fleet.asset_id)
    args = [(fleet, scenario, r, keys) for r in range(scenario.replications)]
    if jobs > 1 and scenario.replications > 1:
        # imported here: the pool modules cost every CLI start-up otherwise
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            series = list(pool.map(_replication_worker, args))
    else:
        series = [_replication_worker(a) for a in args]
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
        ordered = np.sort(matrix, axis=0)
        out[name] = AggregateSeries(
            mean=(matrix.sum(axis=0) / len(series)).tolist(),
            p10=_percentile(ordered, 10).tolist(),
            p90=_percentile(ordered, 90).tolist(),
        )
    return out


def _percentile(ordered: np.ndarray, q: int) -> np.ndarray:
    """``np.percentile(matrix, q, axis=0)`` of the matrix whose columns
    `ordered` holds sorted, in numpy's float steps (its default "linear"
    method): the virtual index ``(rows - 1) * q / 100`` splits into a floor
    and a weight, and the two order statistics around it are interpolated
    from the nearer one. `np.percentile` itself imports ``numpy.ma``, which
    would cost every `simulate` run its import.
    """
    last = len(ordered) - 1
    virtual = last * (q / 100)
    if virtual >= last:
        # numpy takes the last row on both sides, with its floor index at -1
        below = above = last
        weight = virtual + 1
    else:
        below = math.floor(virtual)
        above = below + 1
        weight = virtual - below
    lower, upper = ordered[below], ordered[above]
    diff = upper - lower
    if weight >= 0.5:
        return upper - diff * (1 - weight)
    return lower + diff * weight
